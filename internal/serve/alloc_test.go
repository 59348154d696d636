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
// packed: cpu and sharded alike 47 allocations and 9.1 KB, 39 and 8.0 KB,
// of which httptest's own request and recorder are about 5 KB (JSON 48 and
// 9.2 KB while its neighbors were copied into a wire type of their own;
// packed 41 while its Content-Length value was built for every answer; cpu 50 and
// 43, sharded 51 and 44 while the Content-Type and X-Request-Id values were
// set through http.Header.Set and sharded validated its batch into an
// object of its own; 63 and 56 allocations while every span was a heap
// object of its own; 81 and 66, 11.4 and 8.8 KB, while a lone request still went
// through the collector loop and a flush goroutine). The slack is for
// whatever a neighbouring test left running.
func TestSearchAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name    string
		backend apknn.BackendKind
		n, dim  int
		packed  bool
		allocs  float64
		bytes   float64
	}{
		{"cpu", apknn.CPU, 2000, 32, false, 51, 10200},
		{"sharded", apknn.Sharded, 32768, 64, false, 51, 10200},
		{"cpu_packed", apknn.CPU, 2000, 32, true, 43, 8875},
		{"sharded_packed", apknn.Sharded, 32768, 64, true, 43, 8875},
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

// TestStreamLegAllocBudget bounds one router→shard leg: Client.Search over a
// StreamTransport to a Server behind a real listener, the node's handler
// included (it shares the process). Measured 32 allocations and 2.8 KB; 34
// while the node built its Content-Length value for every answer; 36
// while the node set its Content-Type and X-Request-Id echo through
// http.Header.Set; 36 with the node's span tree in one arena; 49 and 3.1 KB
// while every span was a heap object of its own; 69 and 5.4 KB when frames went through
// http.Client and a RoundTripper, 136 and 9.7 KB over http.Transport.
func TestStreamLegAllocBudget(t *testing.T) {
	const allocCeiling, bytesCeiling = 39, 3375
	ds := apknn.RandomDataset(7, 2000, 32)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.CPU), apknn.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx, Config{Dim: ds.Dim()})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	tr := &StreamTransport{}
	defer tr.CloseIdleConnections()
	client := &Client{BaseURL: ts.URL, Stream: tr}
	q := ds.At(3)
	leg := func() {
		if _, err := client.Search(context.Background(), q, 8); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, leg)
	size := bytesPerRun(200, leg)
	t.Logf("%.0f allocations, %.0f bytes per leg", allocs, size)
	if allocs > allocCeiling {
		t.Errorf("a leg allocates %.0f times, ceiling %d", allocs, allocCeiling)
	}
	if size > bytesCeiling {
		t.Errorf("a leg allocates %.0f bytes, ceiling %d", size, bytesCeiling)
	}
}
