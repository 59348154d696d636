package cluster_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	apknn "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// testNode is one in-process apserve instance: the serving layer plus its
// HTTP listener.
type testNode struct {
	srv *serve.Server
	ts  *httptest.Server
}

// kill takes the node down as a dead process looks from outside: the
// listener and its HTTP connections closed, and — httptest.Server.Close
// leaves hijacked connections alone — the serving layer with its streams.
// Killing a node twice is harmless.
func (n *testNode) kill(t *testing.T) {
	t.Helper()
	n.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.srv.Close(ctx); err != nil {
		t.Errorf("node close: %v", err)
	}
}

// testCluster is a full in-process cluster: shards × replicas serving
// nodes, a manifest, and a router in front.
type testCluster struct {
	router *cluster.Router
	ts     *httptest.Server // the router's listener
	client *serve.Client    // talks to the router
	nodes  [][]*testNode    // [shard][replica]
	bases  []int
}

// bootCluster partitions ds into contiguous shards, boots replicas-per
// serving nodes per shard (every replica of a shard holds the identical
// partition), and mounts a router over them. wrap, when non-nil, decorates
// each node's handler for fault injection.
func bootCluster(t *testing.T, ds *apknn.Dataset, shards, replicas int, live bool,
	ccfg cluster.Config, wrap func(shard, rep int, h http.Handler) http.Handler) *testCluster {
	t.Helper()
	n := ds.Len()
	chunk := (n + shards - 1) / shards
	m := &cluster.Manifest{}
	tc := &testCluster{}
	for s := 0; s < shards; s++ {
		lo, hi := s*chunk, (s+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			t.Fatalf("shard %d would be empty (n=%d, shards=%d)", s, n, shards)
		}
		part := ds.Slice(lo, hi)
		sh := cluster.Shard{Base: lo}
		var reps []*testNode
		for rep := 0; rep < replicas; rep++ {
			var idx apknn.Index
			var err error
			if live {
				idx, err = apknn.OpenLive(part, apknn.WithBackend(apknn.Fast), apknn.WithCompactThreshold(-1))
			} else {
				idx, err = apknn.Open(part, apknn.WithBackend(apknn.Fast))
			}
			if err != nil {
				t.Fatal(err)
			}
			srv := serve.New(idx, serve.Config{
				Dim:         ds.Dim(),
				NodeID:      fmt.Sprintf("shard%d-%c", s, 'a'+rep),
				Vectors:     part.Len(),
				MaxInFlight: 1024,
			})
			h := http.Handler(srv.Handler())
			if wrap != nil {
				h = wrap(s, rep, h)
			}
			node := &testNode{srv: srv, ts: httptest.NewServer(h)}
			t.Cleanup(func() { node.kill(t) })
			reps = append(reps, node)
			sh.Replicas = append(sh.Replicas, node.ts.URL)
		}
		tc.nodes = append(tc.nodes, reps)
		tc.bases = append(tc.bases, lo)
		m.Shards = append(m.Shards, sh)
	}
	if ccfg.ProbeInterval == 0 {
		ccfg.ProbeInterval = -1 // probes are driven explicitly in tests
	}
	if ccfg.Dim == 0 {
		ccfg.Dim = ds.Dim()
	}
	router, err := cluster.New(m, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = router
	tc.ts = httptest.NewServer(router.Handler())
	tc.client = &serve.Client{BaseURL: tc.ts.URL}
	t.Cleanup(func() {
		tc.ts.Close()
		router.Close()
	})
	return tc
}

// TestClusterMergeEquivalence is the acceptance property: the router's
// top-k over N shards is byte-identical — ties included — to a single
// index opened over the concatenated dataset, across dimensionalities,
// shard counts, and k values that exceed individual shard sizes. Small
// dimensionalities force heavy distance ties, so any tie-break divergence
// between the host-side cluster merge and the single-node path fails here.
func TestClusterMergeEquivalence(t *testing.T) {
	const nq = 12
	for _, dim := range []int{32, 128} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("dim%d/shards%d", dim, shards), func(t *testing.T) {
				n := 600 + 13*shards // ragged last partition
				ds := apknn.RandomDataset(uint64(1000*dim+shards), n, dim)
				tc := bootCluster(t, ds, shards, 1, false, cluster.Config{}, nil)
				oracle, err := apknn.Open(ds, apknn.WithBackend(apknn.Fast))
				if err != nil {
					t.Fatal(err)
				}
				queries := apknn.RandomQueries(uint64(2000*dim+shards), nq, dim)
				ctx := context.Background()
				for _, k := range []int{1, 10, n/shards + 7} {
					exact, err := oracle.Search(ctx, queries, k)
					if err != nil {
						t.Fatal(err)
					}
					for qi, q := range queries {
						resp, err := tc.client.Search(ctx, q, k)
						if err != nil {
							t.Fatalf("k=%d query %d: %v", k, qi, err)
						}
						got := serve.Neighbors(resp.Neighbors)
						if len(got) != len(exact[qi]) {
							t.Fatalf("k=%d query %d: %d neighbors, want %d", k, qi, len(got), len(exact[qi]))
						}
						for j := range got {
							if got[j] != exact[qi][j] {
								t.Fatalf("k=%d query %d rank %d: %+v, want %+v", k, qi, j, got[j], exact[qi][j])
							}
						}
					}
					// The batch endpoint scatters the whole batch per shard;
					// its merge must agree too.
					batch, err := tc.client.SearchBatch(ctx, queries, k)
					if err != nil {
						t.Fatalf("k=%d batch: %v", k, err)
					}
					for qi := range queries {
						if len(batch[qi]) != len(exact[qi]) {
							t.Fatalf("k=%d batch query %d: %d neighbors, want %d", k, qi, len(batch[qi]), len(exact[qi]))
						}
						for j := range batch[qi] {
							if batch[qi][j] != exact[qi][j] {
								t.Fatalf("k=%d batch query %d rank %d: %+v, want %+v",
									k, qi, j, batch[qi][j], exact[qi][j])
							}
						}
					}
				}
			})
		}
	}
}
