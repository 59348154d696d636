package main

// metricDef declares one metric; BENCHMARK.json lists the same tables and a
// test keeps the two equal.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// only names the one workload that has the metric; empty means all.
	only string
}

// endToEnd is what a caller of the system sees on every workload, measured
// with tracing off over the whole timed phase, times stated at the reference
// host speed (probe.go). BENCHMARK.json and the result line carry exactly
// these: the acceptance driver requires every workload to report every
// metric of the manifest, never 0 and never constant.
//
// The bounds follow what this shared 2-core VM repeats, not what one would
// like to gate. Over two sets of ten seeds per workload, the host 1.7× slower
// than the reference during the first and 1.35× during the second, the
// interquartile spread within a set was 2–8 % of the median for search_qps
// and search_p50_ms and 5–11 % for search_p99_ms, and the set medians lay
// within 11 % of each other (as the clock read them: spreads up to 26 %, set
// medians 15–27 % apart); a quiet hour and a very busy one still differ by
// up to a tenth in the medians and a fifth in live_churn's and in the tails,
// because the correction is first-order. The driver wants the spread under a third
// of the bound and caps bounds at a quarter, so rates, latencies and set-up
// sit at the cap. Heap repeats within 2 %. ISSUE 13 asked for 5–10 %; on a
// box of its own, tightening them is a change to this table and the manifest
// alone.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "search_qps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "search_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "search_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.10},
}

// ownEndToEnd are the end-to-end metrics that rule keeps out of the
// manifest: one workload has them, or they are 0 or exact by design. They
// are printed as `workload/name value unit` lines, stand in the full run's
// JSON document, and -agree holds them to these bounds.
var ownEndToEnd = []metricDef{
	{name: "write_p50_ms", unit: "ms", better: "lower", bound: 0.25, only: "live_churn"},
	{name: "write_p99_ms", unit: "ms", better: "lower", bound: 0.25, only: "live_churn"},
	{name: "modeled_qps", unit: "1/s", better: "higher", bound: 0.001, only: "serve_ap"},
	{name: "failed_share", unit: "ratio", better: "lower", bound: 0},
}

// perLayer is the traced run's table. *_ns are medians per call; *_allocs
// and *_alloc_b are process-wide MemStats deltas per call while one
// goroutine drives; counts from the program's own Stats are exact. A layer
// a workload does not run reports 0.
var perLayer = []metricDef{
	{name: "bitvec.parse_ns", unit: "ns", better: "lower"},
	{name: "bitvec.format_ns", unit: "ns", better: "lower"},
	{name: "bitvec.load_ms", unit: "ms", better: "lower"},

	{name: "knn.scan_ns", unit: "ns", better: "lower"},
	{name: "knn.scan_gb_s", unit: "GB/s", better: "higher"},
	{name: "knn.scan_allocs", unit: "count", better: "lower"},
	{name: "knn.scan_alloc_b", unit: "B", better: "lower"},
	{name: "knn.merge_ns", unit: "ns", better: "lower"},

	{name: "backend.open_ms", unit: "ms", better: "lower"},
	{name: "backend.search_ns", unit: "ns", better: "lower"},
	{name: "backend.self_ns", unit: "ns", better: "lower"},
	{name: "backend.allocs", unit: "count", better: "lower"},
	{name: "backend.alloc_b", unit: "B", better: "lower"},
	{name: "backend.candidates_per_query", unit: "count", better: "lower"},

	{name: "ap.fast_query_ns", unit: "ns", better: "lower"},
	{name: "ap.encode_ns", unit: "ns", better: "lower"},
	{name: "ap.modeled_us_per_query", unit: "us", better: "lower"},
	{name: "ap.modeled_qps", unit: "1/s", better: "higher"},
	{name: "ap.reconfigs_per_query", unit: "count", better: "lower"},
	{name: "ap.symbols_per_query", unit: "count", better: "lower"},
	{name: "ap.partitions", unit: "count", better: "lower"},

	{name: "serve.handler_ns", unit: "ns", better: "lower"},
	{name: "serve.self_ns", unit: "ns", better: "lower"},
	{name: "serve.handler_allocs", unit: "count", better: "lower"},
	{name: "serve.handler_alloc_b", unit: "B", better: "lower"},
	{name: "serve.decode_ns", unit: "ns", better: "lower"},
	{name: "serve.encode_ns", unit: "ns", better: "lower"},
	{name: "serve.transport_ns", unit: "ns", better: "lower"},
	{name: "serve.queue_wait_p50_us", unit: "us", better: "lower"},
	{name: "serve.flush_assembly_p50_us", unit: "us", better: "lower"},
	{name: "serve.backend_p50_us", unit: "us", better: "lower"},
	{name: "serve.mean_batch", unit: "count", better: "higher"},
	{name: "serve.flushes", unit: "count", better: "lower"},
	{name: "serve.rejected", unit: "count", better: "lower"},
	{name: "serve.expired", unit: "count", better: "lower"},

	{name: "cluster.handler_ns", unit: "ns", better: "lower"},
	{name: "cluster.leg_ns", unit: "ns", better: "lower"},
	{name: "cluster.self_ns", unit: "ns", better: "lower"},
	{name: "cluster.transport_ns", unit: "ns", better: "lower"},
	{name: "cluster.handler_allocs", unit: "count", better: "lower"},
	{name: "cluster.handler_alloc_b", unit: "B", better: "lower"},
	{name: "cluster.resolve_ms", unit: "ms", better: "lower"},
	{name: "cluster.leg_p50_us", unit: "us", better: "lower"},
	{name: "cluster.shard_calls_per_search", unit: "count", better: "lower"},
	{name: "cluster.hedges", unit: "count", better: "lower"},
	{name: "cluster.retries", unit: "count", better: "lower"},
	{name: "cluster.failovers", unit: "count", better: "lower"},

	{name: "live.insert_ns", unit: "ns", better: "lower"},
	{name: "live.delete_ns", unit: "ns", better: "lower"},
	{name: "live.search_ns", unit: "ns", better: "lower"},
	{name: "live.delta_overhead_ns", unit: "ns", better: "lower"},
	{name: "live.compact_ms", unit: "ms", better: "lower"},
	{name: "live.compactions", unit: "count", better: "lower"},
	{name: "live.compactions_per_kwrite", unit: "count", better: "lower"},
	{name: "live.recover_ms", unit: "ms", better: "lower"},
	{name: "live.replayed_records", unit: "count", better: "lower"},
	{name: "live.write_p50_ms", unit: "ms", better: "lower"},
	{name: "live.write_p99_ms", unit: "ms", better: "lower"},
	{name: "live.write_p999_ms", unit: "ms", better: "lower"},

	{name: "wal.append_ns", unit: "ns", better: "lower"},
	{name: "wal.bytes_per_insert", unit: "B", better: "lower"},
	{name: "wal.sync_ms", unit: "ms", better: "lower"},
	{name: "wal.replay_mb_s", unit: "MB/s", better: "higher"},

	{name: "obs.record_ns", unit: "ns", better: "lower"},
	{name: "obs.span_ns", unit: "ns", better: "lower"},
	{name: "heat.observe_ns", unit: "ns", better: "lower"},

	{name: "proc.cpu_ms_per_kquery", unit: "ms", better: "lower"},
	{name: "proc.alloc_kb_per_op", unit: "kB", better: "lower"},
	{name: "proc.allocs_per_op", unit: "count", better: "lower"},
	{name: "proc.gc_cycles_per_s", unit: "1/s", better: "lower"},
	{name: "proc.gc_pause_ms_per_s", unit: "ms/s", better: "lower"},
	{name: "proc.slice_spread_pct", unit: "%", better: "lower"},
	{name: "proc.stolen_pct", unit: "%", better: "lower"},
	{name: "proc.stolen_blocks_pct", unit: "%", better: "lower"},
	{name: "proc.host_slowdown", unit: "ratio", better: "lower"},
	{name: "proc.raw_p50_ms", unit: "ms", better: "lower"},
	{name: "proc.untraced_p50_ms", unit: "ms", better: "lower"},

	{name: "trace.outermost_ns", unit: "ns", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.unattributed_pct", unit: "%", better: "lower"},
}

func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, ownEndToEnd, perLayer} {
		for _, m := range tab {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}
