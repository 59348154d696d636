package cluster_test

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	apknn "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// waitUntil polls cond until it holds or five seconds pass.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		<-tick.C
	}
}

// TestLegWorkersLifecycle: a burst of routed searches with more legs in
// flight at once than the idle bound leaves exactly the bound parked — the
// count never passes it — and Router.Close releases every worker, so the
// process is back to the goroutines it had before the burst.
func TestLegWorkersLifecycle(t *testing.T) {
	const burst = cluster.MaxIdleLegWorkers + 16
	ds := apknn.RandomDataset(41, 400, 32)
	// Shard 0's searches wait until the whole burst has arrived: every one of
	// its legs, which run on leg workers, is in flight at once.
	var arrived atomic.Int32
	gate := make(chan struct{})
	tc := bootCluster(t, ds, 2, 1, false, cluster.Config{}, func(shard, _ int, h http.Handler) http.Handler {
		if shard != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/search" {
				if arrived.Add(1) == burst {
					close(gate)
				}
				select {
				case <-gate:
				case <-time.After(10 * time.Second): // a burst that never completes fails below
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	baseline := runtime.NumGoroutine()

	var peak atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			if n := int64(cluster.IdleLegWorkers(tc.router)); n > peak.Load() {
				peak.Store(n)
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	// In process: a caller's keep-alive connections to the router would be
	// goroutines of their own.
	h := tc.router.Handler()
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := do(h, "POST", "/v1/search", serve.SearchRequest{Query: ds.At(i).String(), K: 3}, nil)
			if rec.Code != http.StatusOK {
				t.Errorf("search %d answered %d: %s", i, rec.Code, rec.Body.String())
			}
		}(i)
	}
	wg.Wait()
	waitUntil(t, "the bound's worth of workers is parked", func() bool {
		return cluster.IdleLegWorkers(tc.router) == cluster.MaxIdleLegWorkers
	})
	close(stop)
	<-sampled
	if p := peak.Load(); p > cluster.MaxIdleLegWorkers {
		t.Errorf("%d leg workers parked at once, bound %d", p, cluster.MaxIdleLegWorkers)
	}

	tc.router.Close()
	waitUntil(t, "Close released the leg workers", func() bool { return cluster.IdleLegWorkers(tc.router) == 0 })
	waitUntil(t, "the goroutine count is back to its baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}
