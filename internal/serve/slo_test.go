package serve

import (
	"context"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	apknn "repro"
	"repro/internal/obs"
)

// slowIndex answers every Search after a fixed delay — the controllable
// "backend is this fast today" knob the SLO tests steer against.
type slowIndex struct {
	delay time.Duration
}

func (s *slowIndex) Search(ctx context.Context, queries []apknn.Vector, k int) ([][]apknn.Neighbor, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	out := make([][]apknn.Neighbor, len(queries))
	for i := range out {
		out[i] = []apknn.Neighbor{{ID: 0, Dist: 0}}
	}
	return out, nil
}

func (s *slowIndex) ModeledTime() time.Duration { return 0 }
func (s *slowIndex) Stats() apknn.Stats         { return apknn.Stats{Backend: "slow", Boards: 1} }

// TestSLOControllerShedsOnBreach drives a server whose backend is far too
// slow for the configured queue-wait target and requires the closed loop to
// engage: the limit is cut below the static cap, sheds happen with a
// Retry-After header, and the controller state is visible in Stats.
func TestSLOControllerShedsOnBreach(t *testing.T) {
	idx := &slowIndex{delay: 20 * time.Millisecond}
	srv := New(idx, Config{
		MaxBatch:     4,
		BatchWindow:  time.Millisecond,
		MaxInFlight:  32,
		SLOTargetP99: time.Millisecond, // unholdable: queue waits are tens of ms
		// One flush at a time, so the wait for the slot is queue wait and the
		// breach does not hang on how the 32 workers happen to interleave:
		// with unbounded flushes they fall into step, every batch fills at
		// once, and no request waits at all.
		MaxConcurrentFlushes: 1,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if st := srv.Stats(); st.SLO == nil || st.SLO.TargetP99NS != int64(time.Millisecond) {
		t.Fatalf("SLO block missing or wrong target: %+v", st.SLO)
	}

	q := apknn.RandomQueries(3, 1, 8)[0]
	var shed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(2*time.Second, func() { close(stop) })
	// Open-ish loop: more workers than the cap can ever serve at the target,
	// re-posting as fast as the server answers. Cuts are 500ms apart, so the
	// limit needs ~3 cuts (32→22→15→10) to drop below the worker count and
	// start shedding — 2s leaves margin for four.
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := newRecorder()
				if release := srv.admit(rec); release != nil {
					req := &request{ctx: context.Background(), query: q, k: 1,
						resp: make(chan response, 1), enqueued: time.Now()}
					if err := srv.batcher.submit(req); err == nil {
						<-req.resp
					}
					release()
				} else if rec.Code == 429 {
					if rec.Header().Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
					shed.Add(1)
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()

	st := srv.Stats()
	if st.SLO.Decreases == 0 {
		t.Fatalf("controller never cut the limit: %+v", st.SLO)
	}
	if st.SLO.Limit >= 32 {
		t.Fatalf("limit %d did not drop below the static cap", st.SLO.Limit)
	}
	if shed.Load() == 0 || st.Rejected == 0 {
		t.Fatalf("no sheds despite unholdable target (shed=%d rejected=%d)", shed.Load(), st.Rejected)
	}
	if st.SLO.ObservedP99NS <= int64(time.Millisecond) {
		t.Fatalf("observed p99 %d did not register the breach", st.SLO.ObservedP99NS)
	}
}

// TestSLOControllerRecovers pins the additive-increase half: after load
// stops, a cut limit climbs back toward the static cap so a recovered
// server re-earns its capacity.
func TestSLOControllerRecovers(t *testing.T) {
	var limit, inflight atomic.Int64
	limit.Store(4) // as if a breach had cut it
	c := newSLOController(50*time.Millisecond, &limit, &inflight, 256, &obs.Set{})
	go c.run()
	defer c.close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		// Climbing well past the cut (4 → ≥64) proves additive increase is
		// live without racing the full ramp-to-cap against the deadline.
		if limit.Load() >= 64 {
			if c.stats().Increases == 0 {
				t.Fatal("limit climbed but no increases counted")
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("limit never recovered: %d", limit.Load())
}

// TestStaticAdmissionUnchanged pins that without an SLO target the gate
// still behaves like the old channel semaphore: fixed limit, no SLO block,
// batch-window Retry-After.
func TestStaticAdmissionUnchanged(t *testing.T) {
	idx := newBlockingIndex()
	srv := New(idx, Config{MaxInFlight: 1, BatchWindow: 0})
	defer func() {
		close(idx.release)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	}()
	if srv.slo != nil {
		t.Fatal("static config built an SLO controller")
	}
	if st := srv.Stats(); st.SLO != nil {
		t.Fatal("static stats carry an SLO block")
	}
	rec := newRecorder()
	release := srv.admit(rec)
	if release == nil {
		t.Fatal("first admit refused")
	}
	rec2 := newRecorder()
	if r2 := srv.admit(rec2); r2 != nil {
		t.Fatal("second admit exceeded MaxInFlight=1")
	}
	if rec2.Code != 429 || rec2.Header().Get("Retry-After") == "" {
		t.Fatalf("static shed: code %d, Retry-After %q", rec2.Code, rec2.Header().Get("Retry-After"))
	}
	release()
	if r3 := srv.admit(newRecorder()); r3 == nil {
		t.Fatal("admit after release refused")
	} else {
		r3()
	}
}

// TestAnalyticsEndpoint drives repeated queries through the server and
// reads /v1/analytics back: the hot key ranks first with a sane count, the
// load block carries the backend counters, and bytes scanned reflects the
// packed vector size.
func TestAnalyticsEndpoint(t *testing.T) {
	// The CPU backend counts candidate scans, so BytesScanned is non-zero —
	// the sharded automata model streams symbols and reports no scan count.
	ds := apknn.RandomDataset(7, 2000, 32)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.CPU))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx, Config{BatchWindow: 0, Vectors: 2000, Dim: ds.Dim()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	client := &Client{BaseURL: ts.URL}
	queries := apknn.RandomQueries(11, 3, ds.Dim())
	hot := queries[0]
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		if _, err := client.Search(ctx, hot, 3); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries[1:] {
		if _, err := client.Search(ctx, q, 3); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.SearchBatch(ctx, queries[1:], 3); err != nil {
		t.Fatal(err)
	}

	an, err := client.Analytics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if an.QueriesObserved != 16 { // 12 hot + 2 singles + 2 batch members
		t.Fatalf("queries observed %d, want 16", an.QueriesObserved)
	}
	if len(an.TopQueries) == 0 || an.TopQueries[0].Key != hot.String() {
		t.Fatalf("hot query not ranked first: %+v", an.TopQueries)
	}
	if got := an.TopQueries[0].Count; got != 12 {
		t.Fatalf("hot query count %d, want 12", got)
	}
	// The two cold queries tie at two sightings each and are listed in
	// bit-string order, whatever order the tracker's packed keys sort in.
	if len(an.TopQueries) != 3 || an.TopQueries[1].Count != 2 || an.TopQueries[2].Count != 2 ||
		an.TopQueries[1].Key >= an.TopQueries[2].Key {
		t.Fatalf("tied queries not in bit-string order: %+v", an.TopQueries[1:])
	}
	for _, hq := range an.TopQueries[1:] {
		if hq.Key != queries[1].String() && hq.Key != queries[2].String() {
			t.Fatalf("key %q is neither cold query's bit string", hq.Key)
		}
	}
	if an.Load.Queries == 0 || an.Load.CandidatesScanned == 0 {
		t.Fatalf("load block empty: %+v", an.Load)
	}
	wantBytes := an.Load.CandidatesScanned * int64((ds.Dim()+63)/64*8)
	if an.Load.BytesScanned != wantBytes {
		t.Fatalf("bytes scanned %d, want %d", an.Load.BytesScanned, wantBytes)
	}
	if an.Load.Vectors != 2000 {
		t.Fatalf("vectors %d, want 2000", an.Load.Vectors)
	}

	// The windowed latency block appears on /v1/stats once requests flowed.
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	win, ok := st.LatencyWindow["apknn_serve_search_seconds"]
	if !ok || win.Count == 0 {
		t.Fatalf("latency_1m missing search series: %+v", st.LatencyWindow)
	}
	if cum := st.Latency["apknn_serve_search_seconds"]; win.Count > cum.Count {
		t.Fatalf("windowed count %d exceeds cumulative %d", win.Count, cum.Count)
	}
}

// newRecorder shortens the admit()-without-an-HTTP-stack pattern.
func newRecorder() *httptest.ResponseRecorder { return httptest.NewRecorder() }
