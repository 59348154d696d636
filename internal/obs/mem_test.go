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
// a scrape allocated 542 KB and an idle histogram retained 17 KB.
func TestHistogramMemBudget(t *testing.T) {
	before := heapInUse()
	r := NewRegistry()
	now := scrapedNode(r)
	retained := heapInUse() - before

	// One scrape a slot later, so it rotates every window once, as a scrape
	// every 10–15 s does.
	scrape := heapAllocated(func() {
		r.WritePrometheus(io.Discard)
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

	t.Logf("14 histograms, 8 recording, 8 rotations: %.1f KB retained; one scrape allocates %.1f KB; an idle histogram retains %d B",
		float64(retained)/1e3, float64(scrape)/1e3, perIdle)
	if retained > 128_000 {
		t.Errorf("registry retains %d bytes, over the 128 KB budget", retained)
	}
	if scrape > 150_000 {
		t.Errorf("one scrape allocates %d bytes, over the 150 KB budget", scrape)
	}
	if perIdle > 1_000 {
		t.Errorf("an idle histogram retains %d bytes, over the 1 KB budget", perIdle)
	}
	if recordAllocs != 0 {
		t.Errorf("RecordNS into a touched octave allocates %.1f times", recordAllocs)
	}
}
