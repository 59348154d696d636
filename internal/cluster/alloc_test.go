//go:build !race

package cluster_test

import (
	"net/http"
	"runtime"
	"testing"

	apknn "repro"
	"repro/internal/cluster"
)

// What one POST /v1/search through router.Handler() may allocate, both
// shard legs over loopback streams and the shards' own handlers included
// (they share the process): a count and, because a count does not see size
// (15 KB of histogram snapshots per tier hid in two allocations), bytes.
// Measured: 145 allocations and 16.1 KB for a JSON caller, 138 and 15.0 KB
// for a packed one, with each tier's span tree in one arena (three per
// search); 187 and 16.7 KB, 180 and 15.5 KB while every span was a heap
// object of its own, with the legs written as frames by serve.Client itself
// and run on parked leg workers; 232 and 21.5 KB, 225 and 20.4 KB while
// they went through http.Client and a goroutine of their own; with the legs
// over http.Transport, a goroutine per leg and per attempt and the shards'
// lone requests through their collector loops the same request cost 407 and
// 33.0 KB, 393 and 30.6 KB.
const (
	routedSearchAllocCeiling = 158
	routedSearchBytesCeiling = 17900
)

// bytesPerRun is testing.AllocsPerRun for bytes, the whole process counted.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func TestRoutedSearchAllocBudget(t *testing.T) {
	ds := apknn.RandomDataset(7, 2000, 32)
	tc := bootCluster(t, ds, 2, 1, false, cluster.Config{}, nil)
	h := tc.router.Handler()
	for _, codec := range codecs {
		t.Run(codec.name, func(t *testing.T) {
			body := codec.body(false, 8, 0, []apknn.Vector{ds.At(3)})
			post := func() {
				if rec := codec.post(h, "/v1/search", body); rec.Code != http.StatusOK {
					t.Fatalf("search answered %d: %s", rec.Code, rec.Body.String())
				}
			}
			allocs := testing.AllocsPerRun(200, post)
			size := bytesPerRun(200, post)
			t.Logf("%.0f allocations, %.0f bytes per routed POST /v1/search", allocs, size)
			if allocs > routedSearchAllocCeiling {
				t.Errorf("routed POST /v1/search allocates %.0f times, ceiling %d", allocs, routedSearchAllocCeiling)
			}
			if size > routedSearchBytesCeiling {
				t.Errorf("routed POST /v1/search allocates %.0f bytes, ceiling %d", size, routedSearchBytesCeiling)
			}
		})
	}
}
