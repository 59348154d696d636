package apknn

import (
	"repro/internal/apstats"
	"repro/internal/obs"
)

// The wire-visible stats structs are declared in internal/apstats, the leaf
// package the serving tiers share; these aliases are the public names.
type (
	// Stats is a point-in-time snapshot of an Index's serving counters;
	// GET /v1/stats returns it under "backend".
	Stats = apstats.Stats
	// LiveStats is the mutable-index block of an OpenLive index's Stats.
	LiveStats = apstats.LiveStats
	// DurabilityStats is the write-ahead-log block of a durable live
	// index's Stats.
	DurabilityStats = apstats.DurabilityStats
	// ServingStats is the micro-batcher and admission-control snapshot of
	// the HTTP serving layer; GET /v1/stats reports it under "serving".
	ServingStats = apstats.ServingStats
	// SLOStats is the SLO-adaptive admission controller's state block
	// inside ServingStats.
	SLOStats = apstats.SLOStats
	// ClusterStats is the routing-tier snapshot of a multi-node cluster;
	// GET /v1/stats on an aprouter reports it under "cluster".
	ClusterStats = apstats.ClusterStats
	// NodeStats is one replica's line inside ClusterStats.PerNode.
	NodeStats = apstats.NodeStats
)

// LatencySummary is one metric's quantile block inside the "latency" map of
// /v1/stats, on both apserve and aprouter: the count, mean, p50/p90/p99 and
// max of a server-side latency histogram, in nanoseconds. The map is keyed
// by the same stable metric names GET /metrics exports (apknn_*_seconds), so
// a dashboard can correlate the two surfaces; metrics that have not recorded
// a sample yet are omitted. Quantiles are log-bucket estimates with ≤6%
// relative error (see internal/obs).
type LatencySummary = obs.Summary

// backendMetrics is the metric set every built-in index owns: the series
// GET /metrics prints for it, and the objects its Stats is filled from.
// Queries and batches are counted here; symbols, reconfigurations and
// candidates are meters the engine behind the index already keeps, read
// through the funcs (nil reads zero).
type backendMetrics struct {
	set                            *obs.Set
	queries, batches               *obs.Counter
	symbols, reconfigs, candidates func() int64
}

func orZero(read func() int64) func() int64 {
	if read == nil {
		return func() int64 { return 0 }
	}
	return read
}

// newBackendMetrics registers the apknn_backend_* series on set.
func newBackendMetrics(set *obs.Set, symbols, reconfigs, candidates func() int64) backendMetrics {
	m := backendMetrics{set: set, symbols: orZero(symbols), reconfigs: orZero(reconfigs), candidates: orZero(candidates)}
	m.queries = set.Counter("apknn_backend_queries_total", "Queries answered by the backend index")
	m.batches = set.Counter("apknn_backend_batches_total", "Batches answered by the backend index")
	set.CounterFunc("apknn_backend_symbols_streamed_total", "Symbol cycles streamed across the backend's boards", m.symbols)
	set.CounterFunc("apknn_backend_reconfigs_total", "Board configurations the backend loaded", m.reconfigs)
	set.CounterFunc("apknn_backend_candidates_scanned_total",
		"Query/candidate distance pairs the backend evaluated", m.candidates)
	return m
}

// Metrics implements apstats.Metered.
func (m *backendMetrics) Metrics() *obs.Set { return m.set }

func (m *backendMetrics) countSearch(queries int) {
	m.queries.Add(int64(queries))
	m.batches.Add(1)
}

// snapshot fills the metered fields of a Stats.
func (m *backendMetrics) snapshot(kind BackendKind) Stats {
	return Stats{
		Backend:           kind,
		Queries:           m.queries.Load(),
		Batches:           m.batches.Load(),
		SymbolsStreamed:   m.symbols(),
		Reconfigs:         m.reconfigs(),
		CandidatesScanned: m.candidates(),
	}
}
