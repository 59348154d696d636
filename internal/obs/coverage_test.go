package obs_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	apknn "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// unattributedShare runs fn and returns the part of the root spans named
// root that their direct children left uncovered, as a share of those
// roots' total time, which the front door records into e2e.
func unattributedShare(t *testing.T, root, e2e string, fn func()) float64 {
	t.Helper()
	gap := obs.Default.HistogramVec("apknn_trace_unattributed_seconds", "", "root").With(root)
	total := obs.Default.Histogram(e2e, "")
	gap0, total0 := gap.Snapshot(), total.Snapshot()
	fn()
	gap1, total1 := gap.Snapshot(), total.Snapshot()
	if n := gap1.Count - gap0.Count; n == 0 || n != total1.Count-total0.Count {
		t.Fatalf("%s: %d unattributed samples for %d requests", root, n, total1.Count-total0.Count)
	}
	return float64(gap1.Sum-gap0.Sum) / float64(total1.Sum-total0.Sum)
}

// post answers one JSON POST /v1/search through h, in process.
func post(t *testing.T, h http.Handler, body string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Errorf("search answered %d: %s", rec.Code, rec.Body.String())
	}
}

func newNode(t *testing.T, ds *apknn.Dataset, cfg serve.Config) *serve.Server {
	t.Helper()
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.CPU), apknn.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dim, cfg.Vectors = ds.Dim(), ds.Len()
	srv := serve.New(idx, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv
}

// TestSpanCoverage bounds what a request's spans leave unexplained: the
// share of its root's time that no direct child covers (wire decode,
// admission, encode, and on the router the scatter's own bookkeeping),
// summed over 200 searches of the benchmark's 32768×64 set on a one-worker
// cpu node — served in process, each search its own flush; micro-batched,
// eight clients coalescing into shared flushes attached by reference; and
// routed over two shards of half the set each. Measured on a 2-vCPU VM,
// five runs: 49–57 %, 30–38 % and 10–17 % (up to 77, 42 and 17 % under
// -race). A node's JSON decode, admission and encode have no span of their
// own, which is most of the first figure. The bounds are 90, 70 and 40 %. A
// node that stops recording its backend span, or a router its leg spans,
// breaks the first or the last; a batched search's queue wait covers most
// of it even without the attached flush, which the debug-trace tests pin.
func TestSpanCoverage(t *testing.T) {
	ds := apknn.RandomDataset(23, 32768, 64)
	queries := apknn.RandomQueries(24, 200, 64)
	bodies := make([]string, len(queries))
	for i, q := range queries {
		b, err := json.Marshal(serve.SearchRequest{Query: q.String(), K: 8})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = string(b)
	}

	node := newNode(t, ds, serve.Config{NodeID: "cover-a"}).Handler()
	inProcess := unattributedShare(t, "serve.search", "apknn_serve_search_seconds", func() {
		for _, b := range bodies {
			post(t, node, b)
		}
	})

	batchedNode := newNode(t, ds, serve.Config{NodeID: "cover-b", BatchWindow: time.Millisecond, MaxBatch: 8, MaxInFlight: 64}).Handler()
	batched := unattributedShare(t, "serve.search", "apknn_serve_search_seconds", func() {
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(bodies); i += 8 {
					post(t, batchedNode, bodies[i])
				}
			}(c)
		}
		wg.Wait()
	})

	half := ds.Len() / 2
	m := &cluster.Manifest{}
	for s, part := range []*apknn.Dataset{ds.Slice(0, half), ds.Slice(half, ds.Len())} {
		ts := httptest.NewServer(newNode(t, part, serve.Config{NodeID: "cover-shard"}).Handler())
		t.Cleanup(ts.Close)
		m.Shards = append(m.Shards, cluster.Shard{Base: s * half, Replicas: []string{ts.URL}})
	}
	router, err := cluster.New(m, cluster.Config{Dim: ds.Dim(), ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	rh := router.Handler()
	routed := unattributedShare(t, "router.search", "apknn_cluster_search_seconds", func() {
		for _, b := range bodies {
			post(t, rh, b)
		}
	})

	t.Logf("unattributed share of a search's root span: %.1f%% in process, %.1f%% micro-batched, %.1f%% routed",
		100*inProcess, 100*batched, 100*routed)
	for _, c := range []struct {
		name         string
		share, bound float64
	}{
		{"in process", inProcess, 0.90},
		{"micro-batched", batched, 0.70},
		{"routed", routed, 0.40},
	} {
		if c.share > c.bound {
			t.Errorf("%s: %.1f%% of the root span is covered by no child, over the %.0f%% bound", c.name, 100*c.share, 100*c.bound)
		}
	}
}
