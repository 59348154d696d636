//go:build !race

package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	apknn "repro"
)

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs, other goroutines' included (a handler's
// flush worker is part of what a request costs).
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm-up, as AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSearchAllocBudget bounds what one POST /v1/search through
// srv.Handler() may allocate, in count and in bytes, so that neither
// counting a request nor answering it can quietly start costing either, and
// wire work has a number to beat. A count alone does not see size: the
// flight recorder's threshold used to copy two 960-bucket snapshots per
// request, 15 KB in two allocations, under a ceiling of a hundred. The
// sharded case is the shape apserve boots by default (32768x64 on four
// modeled boards, 32 partitions). The *_packed cases post the packed body
// serve.Client sends; the others the JSON a person does. Measured, JSON then
// packed: cpu 81 allocations and 11.4 KB, 66 and 8.8 KB; sharded 79 and
// 11.1 KB, 65 and 8.7 KB, of which httptest's own request and recorder are
// about 5 KB (before the threshold was cached and the span tree kept as it
// is: 96 and 93 allocations, about 29 KB). The slack is for whatever a
// neighbouring test left running.
func TestSearchAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name    string
		backend apknn.BackendKind
		n, dim  int
		packed  bool
		allocs  float64
		bytes   float64
	}{
		{"cpu", apknn.CPU, 2000, 32, false, 86, 12800},
		{"sharded", apknn.Sharded, 32768, 64, false, 84, 12500},
		{"cpu_packed", apknn.CPU, 2000, 32, true, 71, 10000},
		{"sharded_packed", apknn.Sharded, 32768, 64, true, 70, 9800},
	} {
		t.Run(c.name, func(t *testing.T) {
			ds := apknn.RandomDataset(7, c.n, c.dim)
			idx, err := apknn.Open(ds, apknn.WithBackend(c.backend), apknn.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			srv := New(idx, Config{Dim: ds.Dim()})
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := srv.Close(ctx); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			h := srv.Handler()
			body, contentType := []byte(fmt.Sprintf(`{"query":%q,"k":8}`, ds.At(3).String())), "application/json"
			if c.packed {
				contentType = PackedMediaType
				if body, err = appendPackedRequest(nil, 8, 0, []apknn.Vector{ds.At(3)}); err != nil {
					t.Fatal(err)
				}
			}
			post := func() {
				req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
				req.Header.Set("Content-Type", contentType)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("search answered %d: %s", rec.Code, rec.Body.String())
				}
			}
			allocs := testing.AllocsPerRun(200, post)
			size := bytesPerRun(200, post)
			t.Logf("%.0f allocations, %.0f bytes per POST /v1/search", allocs, size)
			if allocs > c.allocs {
				t.Errorf("POST /v1/search allocates %.0f times, ceiling %.0f", allocs, c.allocs)
			}
			if size > c.bytes {
				t.Errorf("POST /v1/search allocates %.0f bytes, ceiling %.0f", size, c.bytes)
			}
		})
	}
}
