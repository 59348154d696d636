//go:build !race

package obs

import (
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// The memory budgets are compiled out under -race, like the allocation
// budgets: the race runtime's own bookkeeping would be counted.

// heapInUse returns the live heap after full collections. One is not
// enough at the start of a test binary: the first reading after one
// collection still counted 37 KB of the start-up's garbage.
func heapInUse() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapAllocated returns the bytes fn allocates on the heap.
func heapAllocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// scrapedNode is a node's histogram registry after its windows have filled:
// 14 registered histograms, 8 of them recording 10 µs – 2 ms samples, every
// minute window rotated 8 times. It returns the clock of the last rotation.
func scrapedNode(r *Registry) time.Time {
	rng := rand.New(rand.NewSource(3))
	var hists []*Histogram
	for i := 0; i < 14; i++ {
		hists = append(hists, r.Histogram("apknn_mem_"+strconv.Itoa(i)+"_seconds", "memory budget"))
	}
	now := time.Unix(1_700_000_000, 0)
	for rot := 0; rot <= 8; rot++ {
		now = now.Add(defaultWindowWidth)
		for _, h := range hists[:8] {
			for j := 0; j < 1000; j++ {
				h.RecordNS(10_000 + rng.Int63n(2_000_000))
			}
		}
		r.WindowSummaries(now)
	}
	return now
}

// TestHistogramMemBudget: a node's histograms hold the octaves they
// recorded into and window boundaries of that range only. With dense
// 960-bucket counters and boundaries, the scenario below retained 813 KB,
// a scrape allocated 542 KB and an idle histogram retained 17 KB. Its
// WritePrometheus allocated 97.7 KB while each bucket line was formatted
// through Fprintf, 19.8 KB of that the snapshots.
func TestHistogramMemBudget(t *testing.T) {
	before := heapInUse()
	r := NewRegistry()
	now := scrapedNode(r)
	retained := heapInUse() - before

	// One scrape a slot later, so it rotates every window once, as a scrape
	// every 10–15 s does.
	var exposition uint64
	scrape := heapAllocated(func() {
		exposition = heapAllocated(func() { r.WritePrometheus(io.Discard) })
		r.WriteWindowed(io.Discard, now.Add(defaultWindowWidth))
	})

	const idle = 100
	before = heapInUse()
	ir := NewRegistry()
	for i := 0; i < idle; i++ {
		ir.Histogram("apknn_idle_"+strconv.Itoa(i)+"_seconds", "never fires")
	}
	ir.WindowSummaries(time.Unix(1_700_000_000, 0))
	ir.WindowSummaries(time.Unix(1_700_000_100, 0))
	perIdle := (heapInUse() - before) / idle

	h := r.Histogram("apknn_mem_0_seconds", "")
	recordAllocs := testing.AllocsPerRun(1000, func() { h.RecordNS(500_000) })
	runtime.KeepAlive(r)
	runtime.KeepAlive(ir)

	t.Logf("14 histograms, 8 recording, 8 rotations: %.1f KB retained; one scrape allocates %.1f KB, %.1f KB of it in WritePrometheus; an idle histogram retains %d B",
		float64(retained)/1e3, float64(scrape)/1e3, float64(exposition)/1e3, perIdle)
	if retained > 128_000 {
		t.Errorf("registry retains %d bytes, over the 128 KB budget", retained)
	}
	if scrape > 70_000 {
		t.Errorf("one scrape allocates %d bytes, over the 70 KB budget", scrape)
	}
	if exposition > 32_000 {
		t.Errorf("WritePrometheus allocates %d bytes, over the 32 KB budget", exposition)
	}
	if perIdle > 1_000 {
		t.Errorf("an idle histogram retains %d bytes, over the 1 KB budget", perIdle)
	}
	if recordAllocs != 0 {
		t.Errorf("RecordNS into a touched octave allocates %.1f times", recordAllocs)
	}
}

// shardTrace builds and completes the trace of one search on a shard node:
// the root with its node, request and parent-span IDs, queue wait and flush
// assembly, the backend span with its flush size and cause, and the kernel
// scan under it — five spans and five attrs.
func shardTrace(rec *FlightRecorder) {
	tr := NewTrace(NewRequestID(), "serve.search")
	root := tr.Root()
	root.SetAttr("node", "shard0-a")
	root.SetAttr("request_id", NewRequestID())
	root.SetAttr("parent_span_id", NewSpanID().String())
	root.ObserveChild("queue_wait", 3*time.Microsecond)
	root.ObserveChild("flush_assembly", time.Microsecond)
	b := root.StartChild("backend")
	b.SetInt("flush_size", 1)
	b.SetAttr("flush_cause", "deadline")
	b.StartChild("kernel_scan").EndIn(40 * time.Microsecond)
	b.EndIn(45 * time.Microsecond)
	root.EndIn(60 * time.Microsecond)
	rec.Complete(tr, 60*time.Microsecond, Outcome{Status: 200})
}

// liveTrace builds and completes the trace of one search on a live node:
// shardTrace's five spans with the live index's base search (around the
// kernel scan) and delta scan, seven spans, and three attrs.
func liveTrace(rec *FlightRecorder) {
	tr := NewTrace(NewRequestID(), "serve.search")
	root := tr.Root()
	root.SetAttr("request_id", NewRequestID())
	root.ObserveChild("queue_wait", 3*time.Microsecond)
	root.ObserveChild("flush_assembly", time.Microsecond)
	b := root.StartChild("backend")
	b.SetInt("flush_size", 1)
	b.SetAttr("flush_cause", "deadline")
	base := b.StartChild("base_search")
	base.StartChild("kernel_scan").EndIn(40 * time.Microsecond)
	base.EndIn(42 * time.Microsecond)
	b.ObserveChild("delta_scan", 2*time.Microsecond)
	b.EndIn(45 * time.Microsecond)
	root.EndIn(60 * time.Microsecond)
	rec.Complete(tr, 60*time.Microsecond, Outcome{Status: 200})
}

// TestTraceMemBudget: a retained request costs its one arena, 640 B in
// Go's size classes, plus its ID strings and ring slots: ≈756 B per trace
// in a depth-64 recorder full of shard-shaped traces, and one allocation of
// the seven it takes to build one (the other six are IDs). It was ≈986 B
// and 22 allocations when every span was a heap object with its own mutex,
// children slice and string attrs, and the recorder wrapped each trace in
// an entry of its own. A live node's trace spills two spans past the
// arena's five inline ones into a first chunk of two records: ≈900 B per
// trace, ≈1.24 KB while the first chunk held eight.
func TestTraceMemBudget(t *testing.T) {
	const depth = 64
	for _, c := range []struct {
		name   string
		trace  func(*FlightRecorder)
		budget uint64
	}{
		{"shard", shardTrace, 800},
		{"live", liveTrace, 1000},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := heapInUse()
			rec := NewFlightRecorder("shard0-a", depth, nil)
			for i := 0; i < 3*depth; i++ {
				c.trace(rec)
			}
			perTrace := (heapInUse() - before) / depth
			runtime.KeepAlive(rec)
			allocs := testing.AllocsPerRun(100, func() { c.trace(rec) })
			t.Logf("a depth-%d recorder of %s-shaped traces retains %d B per trace; building and completing one allocates %.0f times",
				depth, c.name, perTrace, allocs)
			if perTrace > c.budget {
				t.Errorf("a retained trace costs %d bytes, over the %d B budget", perTrace, c.budget)
			}
		})
	}
}
