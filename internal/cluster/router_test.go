package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	apknn "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// TestHedgedReadWinsOverSlowReplica pins the hedging contract: a primary
// that stalls past the hedge delay loses to a duplicate request on the
// second replica, the client sees a fast, correct answer, and the loser is
// canceled rather than waited out.
func TestHedgedReadWinsOverSlowReplica(t *testing.T) {
	ds := apknn.RandomDataset(21, 400, 32)
	var stalls atomic.Int64
	tc := bootCluster(t, ds, 1, 2, false,
		cluster.Config{HedgeDelay: 10 * time.Millisecond},
		func(shard, rep int, h http.Handler) http.Handler {
			if rep != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/search" {
					stalls.Add(1)
					select {
					case <-time.After(5 * time.Second):
					case <-r.Context().Done():
						return
					}
				}
				h.ServeHTTP(w, r)
			})
		})
	q := apknn.RandomQueries(22, 1, 32)[0]
	exact := apknn.ExactSearch(ds, []apknn.Vector{q}, 3, 1)[0]

	// Latency-aware selection starts both replicas unscored, so the first
	// primary pick is pseudo-random — but once the fast replica has a
	// score, the still-unscored stalled one sorts ahead of it and must
	// lead. By the second request at the latest, the answer can only have
	// come from the hedge.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 4 && stalls.Load() == 0; i++ {
		start := time.Now()
		resp, err := tc.client.Search(ctx, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("hedged search took %v; the stalled primary was waited out", elapsed)
		}
		got := serve.Neighbors(resp.Neighbors)
		for j := range exact {
			if got[j] != exact[j] {
				t.Fatalf("rank %d: %+v, want %+v", j, got[j], exact[j])
			}
		}
	}
	if stalls.Load() == 0 {
		t.Fatal("the stalled replica never became primary; unscored replicas should lead")
	}
	st := tc.router.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("Hedges=%d HedgeWins=%d, want both > 0", st.Hedges, st.HedgeWins)
	}
}

// TestFailoverOnDeadReplica kills one of two replicas and asserts the
// router keeps answering (failing over when the dead one is picked as
// primary), ejects it from the healthy set, and reports a degraded-free
// /healthz while one replica survives.
func TestFailoverOnDeadReplica(t *testing.T) {
	ds := apknn.RandomDataset(31, 400, 32)
	tc := bootCluster(t, ds, 1, 2, false, cluster.Config{}, nil)
	q := apknn.RandomQueries(32, 1, 32)[0]
	exact := apknn.ExactSearch(ds, []apknn.Vector{q}, 4, 1)[0]

	tc.nodes[0][1].ts.Close() // kill replica b; while unscored it still leads
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		resp, err := tc.client.Search(ctx, q, 4)
		if err != nil {
			t.Fatalf("search %d after replica death: %v", i, err)
		}
		got := serve.Neighbors(resp.Neighbors)
		for j := range exact {
			if got[j] != exact[j] {
				t.Fatalf("search %d rank %d: %+v, want %+v", i, j, got[j], exact[j])
			}
		}
	}
	st := tc.router.Stats()
	if st.Failovers == 0 {
		t.Fatalf("Failovers = 0, want > 0 (the dead replica was primary for ~half the picks)")
	}
	if st.Ejected == 0 {
		t.Fatalf("Ejected = 0, want > 0")
	}
	tc.router.Probe(ctx)
	if st = tc.router.Stats(); st.Healthy != 1 {
		t.Fatalf("Healthy = %d after probe, want 1", st.Healthy)
	}
	// One healthy replica still serves the shard: /healthz stays 200.
	if _, err := tc.client.Health(ctx); err != nil {
		t.Fatalf("healthz with one live replica: %v", err)
	}
}

// TestProbeEjectsAndReadmits drives the health lifecycle explicitly: a
// replica whose /healthz starts failing is ejected on the next probe and
// readmitted once it recovers, with both transitions counted exactly once.
func TestProbeEjectsAndReadmits(t *testing.T) {
	ds := apknn.RandomDataset(41, 200, 32)
	var sick atomic.Bool
	tc := bootCluster(t, ds, 1, 2, false, cluster.Config{},
		func(shard, rep int, h http.Handler) http.Handler {
			if rep != 1 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/healthz" && sick.Load() {
					http.Error(w, `{"error":"sick"}`, http.StatusServiceUnavailable)
					return
				}
				h.ServeHTTP(w, r)
			})
		})
	ctx := context.Background()
	tc.router.Probe(ctx)
	if st := tc.router.Stats(); st.Healthy != 2 || st.Ejected != 0 {
		t.Fatalf("after clean probe: Healthy=%d Ejected=%d, want 2/0", st.Healthy, st.Ejected)
	}
	sick.Store(true)
	tc.router.Probe(ctx)
	tc.router.Probe(ctx) // steady-state: no double-counting
	if st := tc.router.Stats(); st.Healthy != 1 || st.Ejected != 1 {
		t.Fatalf("after sick probes: Healthy=%d Ejected=%d, want 1/1", st.Healthy, st.Ejected)
	}
	sick.Store(false)
	tc.router.Probe(ctx)
	tc.router.Probe(ctx)
	if st := tc.router.Stats(); st.Healthy != 2 || st.Readmitted != 1 {
		t.Fatalf("after recovery probes: Healthy=%d Readmitted=%d, want 2/1", st.Healthy, st.Readmitted)
	}
}

// TestMutationRouting pins the write path: inserts land on the tail shard's
// every replica and come back with a union-global ID, deletes route to the
// owning shard by ID range, and a dead replica degrades a write to
// best-effort with the failure reported per replica instead of failing the
// request.
func TestMutationRouting(t *testing.T) {
	ds := apknn.RandomDataset(51, 400, 32)
	tc := bootCluster(t, ds, 2, 2, true, cluster.Config{}, nil)
	ctx := context.Background()
	v := apknn.RandomQueries(52, 1, 32)[0]

	var ins cluster.InsertResponse
	if err := tc.client.Do(ctx, http.MethodPost, "/v1/insert",
		serve.InsertRequest{Vector: v.String()}, &ins); err != nil {
		t.Fatal(err)
	}
	if ins.Shard != 1 || ins.ID != 400 || ins.Acked != 2 || len(ins.ReplicaErrors) != 0 {
		t.Fatalf("insert = %+v, want shard 1, global ID 400, 2 acks", ins)
	}
	// The insert is immediately searchable through the router at distance 0
	// under its global ID.
	resp, err := tc.client.Search(ctx, v, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Neighbors) != 1 || resp.Neighbors[0].ID != 400 || resp.Neighbors[0].Dist != 0 {
		t.Fatalf("search after insert = %+v, want ID 400 at distance 0", resp.Neighbors)
	}

	var del cluster.DeleteResponse
	if err := tc.client.Do(ctx, http.MethodPost, "/v1/delete",
		serve.DeleteRequest{ID: 400}, &del); err != nil {
		t.Fatal(err)
	}
	if del.Shard != 1 || !del.Deleted || del.Acked != 2 {
		t.Fatalf("delete = %+v, want shard 1, deleted, 2 acks", del)
	}
	if resp, err = tc.client.Search(ctx, v, 1); err != nil {
		t.Fatal(err)
	}
	if len(resp.Neighbors) == 1 && resp.Neighbors[0].ID == 400 {
		t.Fatal("deleted vector still returned through the router")
	}

	// A shard-0 global ID routes to shard 0 and tombstones there.
	if err := tc.client.Do(ctx, http.MethodPost, "/v1/delete",
		serve.DeleteRequest{ID: 3}, &del); err != nil {
		t.Fatal(err)
	}
	if del.Shard != 0 || !del.Deleted || del.Acked != 2 {
		t.Fatalf("delete ID 3 = %+v, want shard 0, deleted, 2 acks", del)
	}
	// Double delete: every replica answers 404, so the router does too.
	err = tc.client.Do(ctx, http.MethodPost, "/v1/delete", serve.DeleteRequest{ID: 3}, &del)
	var apiErr *serve.APIError
	if err == nil || !asAPIError(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("double delete err = %v, want APIError 404", err)
	}
	// A negative ID belongs to no shard.
	err = tc.client.Do(ctx, http.MethodPost, "/v1/delete", serve.DeleteRequest{ID: -5}, &del)
	if err == nil || !asAPIError(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unowned delete err = %v, want APIError 404", err)
	}

	// Kill one tail-shard replica: the write degrades to best-effort — one
	// ack, one reported replica error, still HTTP 200.
	tc.nodes[1][1].kill(t)
	if err := tc.client.Do(ctx, http.MethodPost, "/v1/insert",
		serve.InsertRequest{Vector: v.String()}, &ins); err != nil {
		t.Fatal(err)
	}
	if ins.Acked != 1 || len(ins.ReplicaErrors) != 1 {
		t.Fatalf("degraded insert = %+v, want 1 ack and 1 replica error", ins)
	}
	if ins.ReplicaErrors[0].Addr != tc.nodes[1][1].ts.URL {
		t.Fatalf("replica error attributed to %s, want %s", ins.ReplicaErrors[0].Addr, tc.nodes[1][1].ts.URL)
	}
}

// TestRouterRetriesSaturatedShard wires the DoRetry satellite end to end: a
// replica that answers 429 (with an HTTP-date Retry-After, the form the
// client must also parse) on the first attempt is retried after backoff
// rather than failed or failed-over — there is no second replica to hide
// behind here.
func TestRouterRetriesSaturatedShard(t *testing.T) {
	ds := apknn.RandomDataset(61, 300, 32)
	var served atomic.Int64
	tc := bootCluster(t, ds, 1, 1, false,
		cluster.Config{Retry: serve.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}},
		func(shard, rep int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/search" && served.Add(1) == 1 {
					w.Header().Set("Retry-After", time.Now().UTC().Add(-time.Hour).Format(http.TimeFormat))
					http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
					return
				}
				h.ServeHTTP(w, r)
			})
		})
	q := apknn.RandomQueries(62, 1, 32)[0]
	exact := apknn.ExactSearch(ds, []apknn.Vector{q}, 2, 1)[0]
	resp, err := tc.client.Search(context.Background(), q, 2)
	if err != nil {
		t.Fatalf("search through a once-saturated shard: %v", err)
	}
	got := serve.Neighbors(resp.Neighbors)
	for j := range exact {
		if got[j] != exact[j] {
			t.Fatalf("rank %d: %+v, want %+v", j, got[j], exact[j])
		}
	}
	if st := tc.router.Stats(); st.Retries == 0 {
		t.Fatalf("Retries = 0, want > 0")
	}
}

// TestClusterStatsAggregation checks /v1/stats on the router: counters,
// per-node attribution via each node's identity block, and error lines for
// unreachable nodes instead of a failed aggregation.
func TestClusterStatsAggregation(t *testing.T) {
	ds := apknn.RandomDataset(71, 400, 32)
	tc := bootCluster(t, ds, 2, 1, false, cluster.Config{}, nil)
	ctx := context.Background()
	queries := apknn.RandomQueries(72, 3, 32)
	for _, q := range queries {
		if _, err := tc.client.Search(ctx, q, 2); err != nil {
			t.Fatal(err)
		}
	}
	var st cluster.StatsResponse
	if err := tc.client.Do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		t.Fatal(err)
	}
	c := st.Cluster
	if c.Shards != 2 || c.Replicas != 2 || c.Healthy != 2 {
		t.Fatalf("topology block = %+v, want 2 shards, 2 replicas, 2 healthy", c)
	}
	if c.Searches != 3 || c.ShardCalls != 6 {
		t.Fatalf("Searches=%d ShardCalls=%d, want 3 and 6", c.Searches, c.ShardCalls)
	}
	if len(c.PerNode) != 2 {
		t.Fatalf("PerNode has %d lines, want 2", len(c.PerNode))
	}
	var queriesSeen int64
	for i, node := range c.PerNode {
		if node.Error != "" {
			t.Fatalf("node %d reported error %q", i, node.Error)
		}
		if node.NodeID == "" || node.Vectors != 200 || node.Base != i*200 {
			t.Fatalf("node %d = %+v, want an ID, 200 vectors, base %d", i, node, i*200)
		}
		queriesSeen += node.Queries
	}
	if queriesSeen != 6 {
		t.Fatalf("per-node queries sum to %d, want 6 (3 searches x 2 shards)", queriesSeen)
	}

	// An unreachable node becomes an error line, not a failed aggregation.
	tc.nodes[1][0].kill(t)
	if err := tc.client.Do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		t.Fatal(err)
	}
	errLines := 0
	for _, node := range st.Cluster.PerNode {
		if node.Error != "" {
			errLines++
		}
	}
	if errLines != 1 {
		t.Fatalf("%d error lines after killing a node, want 1", errLines)
	}
	// And /healthz degrades: shard 1 has no replica left.
	tc.router.Probe(ctx)
	_, err := tc.client.Health(ctx)
	var apiErr *serve.APIError
	if err == nil || !asAPIError(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a dead shard: err = %v, want APIError 503", err)
	}
}

// lockedBuffer is a log sink written from the router's goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStreamUpgradeRefused: a replica that answers the stream upgrade with
// anything but 101 — here a node that only knows plain HTTP — never answered
// the leg at all. That is a failure of the transport: the leg fails over,
// the replica is ejected, and the error says what the peer answered.
func TestStreamUpgradeRefused(t *testing.T) {
	ds := apknn.RandomDataset(91, 400, 32)
	var logs lockedBuffer
	tc := bootCluster(t, ds, 1, 2, false,
		cluster.Config{Logger: slog.New(slog.NewTextHandler(&logs, nil))},
		func(shard, rep int, h http.Handler) http.Handler {
			if rep != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/stream" {
					http.NotFound(w, r)
					return
				}
				h.ServeHTTP(w, r)
			})
		})
	q := apknn.RandomQueries(92, 1, 32)[0]
	exact := apknn.ExactSearch(ds, []apknn.Vector{q}, 4, 1)[0]
	ctx := context.Background()
	// Both replicas start unscored and the primary pick is pseudo-random;
	// once the good one has a score the unscored one leads.
	for i := 0; i < 4; i++ {
		resp, err := tc.client.Search(ctx, q, 4)
		if err != nil {
			t.Fatalf("search %d past a replica refusing streams: %v", i, err)
		}
		got := serve.Neighbors(resp.Neighbors)
		for j := range exact {
			if got[j] != exact[j] {
				t.Fatalf("search %d rank %d: %+v, want %+v", i, j, got[j], exact[j])
			}
		}
	}
	st := tc.router.Stats()
	if st.Failovers != 1 || st.Ejected != 1 || st.Healthy != 1 {
		t.Fatalf("Failovers=%d Ejected=%d Healthy=%d, want 1, 1 and 1", st.Failovers, st.Ejected, st.Healthy)
	}
	if out := logs.String(); !strings.Contains(out, "replica ejected") || !strings.Contains(out, "404 Not Found") {
		t.Errorf("the ejection does not name the status the upgrade was refused with:\n%s", out)
	}
	// A probe rides the same transport, so the replica stays out.
	tc.router.Probe(ctx)
	if st = tc.router.Stats(); st.Healthy != 1 || st.Readmitted != 0 {
		t.Errorf("after a probe: Healthy=%d Readmitted=%d, want 1 and 0", st.Healthy, st.Readmitted)
	}
}

// TestManifest covers the static-topology layer: validation, range
// ownership, the compact -shards flag form, and the JSON round-trip.
func TestManifest(t *testing.T) {
	m := &cluster.Manifest{Shards: []cluster.Shard{
		{Base: 0, Replicas: []string{"http://a:1"}},
		{Base: 100, Replicas: []string{"http://b:1", "http://b:2"}},
		{Base: 250, Replicas: []string{"http://c:1"}},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct{ id, want int }{
		{-1, -1}, {0, 0}, {99, 0}, {100, 1}, {249, 1}, {250, 2}, {1 << 30, 2},
	} {
		if got := m.Owner(tt.id); got != tt.want {
			t.Errorf("Owner(%d) = %d, want %d", tt.id, got, tt.want)
		}
	}
	for name, bad := range map[string]*cluster.Manifest{
		"no shards":       {},
		"no replicas":     {Shards: []cluster.Shard{{Base: 0}}},
		"empty replica":   {Shards: []cluster.Shard{{Base: 0, Replicas: []string{""}}}},
		"nonzero base 0":  {Shards: []cluster.Shard{{Base: 5, Replicas: []string{"http://a:1"}}}},
		"non-ascending":   {Shards: []cluster.Shard{{Base: 0, Replicas: []string{"http://a:1"}}, {Base: 0, Replicas: []string{"http://b:1"}}}},
		"descending base": {Shards: []cluster.Shard{{Base: 0, Replicas: []string{"http://a:1"}}, {Base: 10, Replicas: []string{"http://b:1"}}, {Base: 5, Replicas: []string{"http://c:1"}}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted manifest with %s", name)
		}
	}

	parsed, err := cluster.ParseTopology(" h1:9001 , h2:9001 ; https://h3:9001 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Shards) != 2 ||
		parsed.Shards[0].Replicas[0] != "http://h1:9001" ||
		parsed.Shards[0].Replicas[1] != "http://h2:9001" ||
		parsed.Shards[1].Replicas[0] != "https://h3:9001" {
		t.Fatalf("ParseTopology = %+v", parsed)
	}
	// Unresolved bases must not validate: routing with them would send
	// every delete to shard 0.
	if err := parsed.Validate(); err == nil {
		t.Fatal("Validate accepted a topology with unresolved bases")
	}
	for _, bad := range []string{"", ";", "a:1,;b:1", " ; "} {
		if _, err := cluster.ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) succeeded, want error", bad)
		}
	}

	path := t.TempDir() + "/manifest.json"
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := cluster.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Shards) != 3 || back.Shards[1].Base != 100 || back.Shards[1].Replicas[1] != "http://b:2" {
		t.Fatalf("manifest round-trip = %+v", back)
	}
}

// TestResolveBases boots two real nodes and lets the probe derive the
// global-ID layout from their /v1/stats identity blocks.
func TestResolveBases(t *testing.T) {
	ds := apknn.RandomDataset(81, 500, 32)
	// Boot a throwaway cluster just for its nodes; the probe target is the
	// manifest, not this router.
	tc := bootCluster(t, ds, 2, 1, false, cluster.Config{}, nil)
	m := &cluster.Manifest{Shards: []cluster.Shard{
		{Base: -1, Replicas: []string{tc.nodes[0][0].ts.URL}},
		{Base: -2, Replicas: []string{tc.nodes[1][0].ts.URL}},
	}}
	if err := m.ResolveBases(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if m.Shards[0].Base != 0 || m.Shards[1].Base != 250 {
		t.Fatalf("resolved bases = %d, %d; want 0, 250", m.Shards[0].Base, m.Shards[1].Base)
	}
	if m.Dim != 32 {
		t.Fatalf("resolved dim = %d, want 32", m.Dim)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestResolveBasesAfterDeletes pins the ID-space rule: a live node that
// has seen deletes reports fewer vectors than its local ID range spans,
// and the probe must size the shard range from the ID-space high-water
// mark — a base derived from the live count would make shard 0's highest
// local IDs collide with shard 1's range.
func TestResolveBasesAfterDeletes(t *testing.T) {
	ds := apknn.RandomDataset(91, 500, 32)
	tc := bootCluster(t, ds, 2, 1, true, cluster.Config{}, nil)
	ctx := context.Background()
	// Delete two shard-0 vectors directly on the node: Len drops to 248,
	// but local IDs still span [0, 250).
	node0 := &serve.Client{BaseURL: tc.nodes[0][0].ts.URL}
	for _, id := range []int{0, 249} {
		if err := node0.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	m := &cluster.Manifest{Shards: []cluster.Shard{
		{Base: -1, Replicas: []string{tc.nodes[0][0].ts.URL}},
		{Base: -2, Replicas: []string{tc.nodes[1][0].ts.URL}},
	}}
	if err := m.ResolveBases(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if m.Shards[1].Base != 250 {
		t.Fatalf("shard 1 base = %d after deletes on shard 0, want 250", m.Shards[1].Base)
	}
}

// TestLatencyAwareRouting pins replica selection: once both replicas of a
// shard are scored, the consistently slower one stops being picked as
// primary — its EWMA loses every power-of-two-choices draw — so nearly all
// traffic lands on the fast replica.
func TestLatencyAwareRouting(t *testing.T) {
	ds := apknn.RandomDataset(101, 300, 32)
	var slowHits, fastHits atomic.Int64
	tc := bootCluster(t, ds, 1, 2, false, cluster.Config{},
		func(shard, rep int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/search" {
					if rep == 0 {
						slowHits.Add(1)
						time.Sleep(30 * time.Millisecond)
					} else {
						fastHits.Add(1)
					}
				}
				h.ServeHTTP(w, r)
			})
		})
	ctx := context.Background()
	queries := apknn.RandomQueries(102, 4, 32)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		if _, err := tc.client.Search(ctx, queries[i%len(queries)], 2); err != nil {
			t.Fatal(err)
		}
	}
	// Unscored replicas lead until first observed, so the slow one serves at
	// most its scoring requests plus the random first pick; after that every
	// draw prefers the fast replica.
	if slow := slowHits.Load(); slow > 4 {
		t.Fatalf("slow replica served %d of %d requests; latency-aware selection is not steering", slow, rounds)
	}
	if fast := fastHits.Load(); fast < rounds-4 {
		t.Fatalf("fast replica served only %d of %d requests", fast, rounds)
	}
}

// TestRouterAnalyticsAggregation drives a hot query through the router and
// reads the aggregated /v1/analytics: per-shard heat blocks from every
// shard, a cluster-wide top-k merge that sums the per-shard counts, and the
// windowed latency block on the router's own /v1/stats.
func TestRouterAnalyticsAggregation(t *testing.T) {
	ds := apknn.RandomDataset(111, 400, 32)
	tc := bootCluster(t, ds, 2, 1, false, cluster.Config{}, nil)
	ctx := context.Background()
	queries := apknn.RandomQueries(112, 3, 32)
	hot := queries[0]
	for i := 0; i < 8; i++ {
		if _, err := tc.client.Search(ctx, hot, 2); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries[1:] {
		if _, err := tc.client.Search(ctx, q, 2); err != nil {
			t.Fatal(err)
		}
	}

	var an cluster.AnalyticsResponse
	if err := tc.client.Do(ctx, http.MethodGet, "/v1/analytics", nil, &an); err != nil {
		t.Fatal(err)
	}
	// 10 searches scattered to 2 shards: every shard's tracker saw all 10.
	if an.QueriesObserved != 20 {
		t.Fatalf("queries observed %d, want 20", an.QueriesObserved)
	}
	if len(an.Shards) != 2 {
		t.Fatalf("%d shard blocks, want 2", len(an.Shards))
	}
	for i, sh := range an.Shards {
		if sh.Error != "" || sh.Analytics == nil {
			t.Fatalf("shard %d block: err=%q analytics=%v", i, sh.Error, sh.Analytics)
		}
		if sh.Analytics.Load.Queries == 0 {
			t.Fatalf("shard %d load block empty: %+v", i, sh.Analytics.Load)
		}
	}
	// The merge sums the hot key across shards: 8 per shard, 16 total.
	if len(an.TopQueries) == 0 || an.TopQueries[0].Key != hot.String() {
		t.Fatalf("hot query not ranked first: %+v", an.TopQueries)
	}
	if got := an.TopQueries[0].Count; got != 16 {
		t.Fatalf("merged hot count %d, want 16", got)
	}

	var st cluster.StatsResponse
	if err := tc.client.Do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		t.Fatal(err)
	}
	win, ok := st.LatencyWindow["apknn_cluster_search_seconds"]
	if !ok || win.Count == 0 {
		t.Fatalf("latency_1m missing routed search series: %+v", st.LatencyWindow)
	}
}

// asAPIError reports whether err carries a *serve.APIError, filling target.
func asAPIError(err error, target **serve.APIError) bool {
	return errors.As(err, target)
}
