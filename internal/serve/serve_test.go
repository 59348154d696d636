package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	apknn "repro"
	"repro/internal/aperr"
)

// waitGoroutines asserts the goroutine count converges back to within slack
// of baseline — the leak check for handlers, flush workers, and watcher
// goroutines.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+slack {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d running, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
}

// newTestServer opens a small sharded index and serves it on an in-process
// HTTP listener. Callers get the client, the exact-scan oracle inputs, and
// a cleanup that drains the serving layer before the leak check runs.
func newTestServer(t *testing.T, cfg Config) (*Client, *Server, *apknn.Dataset) {
	t.Helper()
	ds := apknn.RandomDataset(7, 2000, 32)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Sharded), apknn.WithBoards(2), apknn.WithCapacity(250))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dim == 0 {
		cfg.Dim = ds.Dim()
	}
	srv := New(idx, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return &Client{BaseURL: ts.URL}, srv, ds
}

// TestSearchCoalescesConcurrentRequests is the tentpole behavior: N
// concurrent single-query requests ride shared flushes, every response is
// byte-identical to the exact scan, and the counters record the coalescing.
func TestSearchCoalescesConcurrentRequests(t *testing.T) {
	const nq, k = 8, 5
	client, srv, ds := newTestServer(t, Config{MaxBatch: nq, BatchWindow: 200 * time.Millisecond})
	queries := apknn.RandomQueries(8, nq, 32)
	exact := apknn.ExactSearch(ds, queries, k, 2)

	var wg sync.WaitGroup
	responses := make([]*SearchResponse, nq)
	errs := make([]error, nq)
	for i := 0; i < nq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = client.Search(context.Background(), queries[i], k)
		}(i)
	}
	wg.Wait()

	coalesced := false
	for i := 0; i < nq; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		got := Neighbors(responses[i].Neighbors)
		if len(got) != len(exact[i]) {
			t.Fatalf("request %d: %d neighbors, want %d", i, len(got), len(exact[i]))
		}
		for j := range got {
			if got[j] != exact[i][j] {
				t.Errorf("request %d rank %d: %+v, want %+v", i, j, got[j], exact[i][j])
			}
		}
		if responses[i].FlushSize > 1 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Error("no request reported a flush size > 1; micro-batching never coalesced")
	}
	st := srv.Stats()
	if st.Requests != nq {
		t.Errorf("Requests = %d, want %d", st.Requests, nq)
	}
	if st.Coalesced == 0 {
		t.Error("Coalesced = 0, want > 0")
	}
	if st.Flushes == 0 || st.Flushes >= nq {
		t.Errorf("Flushes = %d, want in [1, %d)", st.Flushes, nq)
	}
	if got := st.FlushesBySize + st.FlushesByDeadline + st.FlushesOnClose; got != st.Flushes {
		t.Errorf("flush causes sum to %d, want %d", got, st.Flushes)
	}
	if st.MeanBatch <= 1 {
		t.Errorf("MeanBatch = %.2f, want > 1", st.MeanBatch)
	}
}

// TestSearchDeadlineFlush: fewer requests than the size cap still flush
// once the window expires, attributed to the deadline counter.
func TestSearchDeadlineFlush(t *testing.T) {
	client, srv, _ := newTestServer(t, Config{MaxBatch: 64, BatchWindow: 5 * time.Millisecond})
	queries := apknn.RandomQueries(9, 3, 32)
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func(q apknn.Vector) {
			defer wg.Done()
			if _, err := client.Search(context.Background(), q, 3); err != nil {
				t.Error(err)
			}
		}(q)
	}
	wg.Wait()
	if st := srv.Stats(); st.FlushesByDeadline == 0 {
		t.Errorf("FlushesByDeadline = 0 with a 5ms window and 3 requests, stats: %+v", st)
	}
}

// TestSearchDifferentK: members of one flush may want different k; each
// response is trimmed to its own ask.
func TestSearchDifferentK(t *testing.T) {
	client, _, ds := newTestServer(t, Config{MaxBatch: 2, BatchWindow: 200 * time.Millisecond})
	queries := apknn.RandomQueries(10, 2, 32)
	ks := []int{2, 7}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Search(context.Background(), queries[i], ks[i])
			if err != nil {
				t.Error(err)
				return
			}
			exact := apknn.ExactSearch(ds, queries[i:i+1], ks[i], 1)[0]
			got := Neighbors(resp.Neighbors)
			if len(got) != ks[i] {
				t.Errorf("request %d: %d neighbors, want %d", i, len(got), ks[i])
				return
			}
			for j := range got {
				if got[j] != exact[j] {
					t.Errorf("request %d rank %d: %+v, want %+v", i, j, got[j], exact[j])
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestSearchBatchEndpoint: the pre-batched endpoint answers in one backend
// call and matches the exact scan.
func TestSearchBatchEndpoint(t *testing.T) {
	client, srv, ds := newTestServer(t, Config{})
	queries := apknn.RandomQueries(11, 6, 32)
	exact := apknn.ExactSearch(ds, queries, 4, 2)
	got, err := client.SearchBatch(context.Background(), queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		for j := range exact[i] {
			if got[i][j] != exact[i][j] {
				t.Fatalf("query %d rank %d: %+v, want %+v", i, j, got[i][j], exact[i][j])
			}
		}
	}
	if st := srv.Stats(); st.BatchRequests != 1 {
		t.Errorf("BatchRequests = %d, want 1", st.BatchRequests)
	}
}

// TestStatsAndHealthEndpoints: both report well-formed JSON with live
// counters after traffic.
func TestStatsAndHealthEndpoints(t *testing.T) {
	client, _, _ := newTestServer(t, Config{})
	ctx := context.Background()
	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Backend != string(apknn.Sharded) || h.Boards != 2 {
		t.Errorf("health = %+v", h)
	}
	q := apknn.RandomQueries(12, 1, 32)[0]
	if _, err := client.Search(ctx, q, 3); err != nil {
		t.Fatal(err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Serving.Requests != 1 || st.Serving.Flushes != 1 {
		t.Errorf("serving stats = %+v", st.Serving)
	}
	if st.Backend.Queries != 1 || st.Backend.Boards != 2 {
		t.Errorf("backend stats = %+v", st.Backend)
	}
	if st.ModeledTimeNS <= 0 {
		t.Errorf("ModeledTimeNS = %d, want > 0", st.ModeledTimeNS)
	}
}

// TestBadRequests: malformed inputs answer 400 with a JSON error body.
func TestBadRequests(t *testing.T) {
	client, _, _ := newTestServer(t, Config{})
	ctx := context.Background()
	q := apknn.RandomQueries(13, 1, 32)[0]

	var apiErr *APIError
	// Wrong dimensionality.
	if _, err := client.Search(ctx, apknn.RandomQueries(13, 1, 16)[0], 3); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("dim mismatch: %v, want APIError 400", err)
	}
	// Negative k.
	if _, err := client.Search(ctx, q, -2); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("bad k: %v, want APIError 400", err)
	}
	// Empty batch.
	if _, err := client.SearchBatch(ctx, nil, 3); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("empty batch: %v, want APIError 400", err)
	}
}

// TestMixedDimBatchWithoutDim: a server that was not told its
// dimensionality cannot hold a batch to it, but it holds the members to each
// other — the router forwards a batch in one packed body, which has one
// dimensionality, and a mixed batch is the caller's mistake, not a shard's.
func TestMixedDimBatchWithoutDim(t *testing.T) {
	ds := apknn.RandomDataset(7, 200, 32)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Fast))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx, Config{}) // no Dim
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close(context.Background())
	client := &Client{BaseURL: ts.URL}
	q32, q16 := apknn.RandomQueries(1, 2, 32), apknn.RandomQueries(2, 1, 16)

	err = client.Do(context.Background(), "POST", "/v1/search_batch",
		SearchBatchRequest{Queries: []string{q32[0].String(), q32[1].String(), q16[0].String()}, K: 3}, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 ||
		apiErr.Message != "query 2 has 16 bits, query 0 has 32: dimension mismatch" {
		t.Errorf("mixed JSON batch: %v, want a 400 naming query 2", err)
	}
	// The packed client cannot even say it.
	if _, err := client.SearchBatch(context.Background(), append(q32, q16...), 3); err == nil || errors.As(err, &apiErr) {
		t.Errorf("mixed packed batch: %v, want a local encoding error", err)
	}
	if st := srv.Stats(); st.BatchRequests != 0 {
		t.Errorf("BatchRequests = %d: a mixed batch reached the backend", st.BatchRequests)
	}
}

// TestBadDimRiderDoesNotPoisonFlush: a wrong-dimension query is refused at
// the door with 400; a valid request sharing the same batch window still
// gets its exact answer — one misbehaving client cannot fail a coalesced
// flush for everyone else.
func TestBadDimRiderDoesNotPoisonFlush(t *testing.T) {
	client, srv, ds := newTestServer(t, Config{MaxBatch: 64, BatchWindow: 100 * time.Millisecond})
	good := apknn.RandomQueries(20, 1, 32)[0]
	bad := apknn.RandomQueries(20, 1, 8)[0] // parseable, wrong length
	exact := apknn.ExactSearch(ds, []apknn.Vector{good}, 3, 1)[0]

	var wg sync.WaitGroup
	wg.Add(2)
	var goodResp *SearchResponse
	var goodErr, badErr error
	go func() { defer wg.Done(); goodResp, goodErr = client.Search(context.Background(), good, 3) }()
	go func() { defer wg.Done(); _, badErr = client.Search(context.Background(), bad, 3) }()
	wg.Wait()

	var apiErr *APIError
	if !errors.As(badErr, &apiErr) || apiErr.Status != 400 {
		t.Errorf("bad-dim request: %v, want APIError 400", badErr)
	}
	if goodErr != nil {
		t.Fatalf("valid rider failed alongside the bad one: %v", goodErr)
	}
	got := Neighbors(goodResp.Neighbors)
	for j := range exact {
		if got[j] != exact[j] {
			t.Errorf("valid rider rank %d: %+v, want %+v", j, got[j], exact[j])
		}
	}
	if st := srv.Stats(); st.Requests != 1 {
		t.Errorf("Requests = %d, want 1 (the bad query must never be admitted)", st.Requests)
	}
}

// TestCloseSubmitRace: requests racing Close must all resolve — an answer,
// a 503, or a cancellation — never a hang. This pins the shutdown drain
// against submits that win the queue-send race after the loop exits.
func TestCloseSubmitRace(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		ds := apknn.RandomDataset(21, 200, 16)
		idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Fast), apknn.WithCapacity(100))
		if err != nil {
			t.Fatal(err)
		}
		srv := New(idx, Config{MaxBatch: 8, BatchWindow: 50 * time.Millisecond, Dim: 16})
		ts := httptest.NewServer(srv.Handler())
		client := &Client{BaseURL: ts.URL}
		q := apknn.RandomQueries(22, 1, 16)[0]

		const racers = 8
		done := make(chan error, racers)
		for i := 0; i < racers; i++ {
			go func() {
				_, err := client.Search(context.Background(), q, 3)
				done <- err
			}()
		}
		closeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Close(closeCtx); err != nil {
			t.Fatalf("trial %d: close: %v", trial, err)
		}
		for i := 0; i < racers; i++ {
			select {
			case err := <-done:
				if err != nil {
					var apiErr *APIError
					if !errors.As(err, &apiErr) || apiErr.Status != 503 {
						t.Fatalf("trial %d: racer got %v, want success or 503", trial, err)
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("trial %d: a racer never resolved — request stranded by shutdown", trial)
			}
		}
		cancel()
		ts.Close()
	}
}

// blockingIndex is a stub backend whose Search parks until released or
// canceled — the admission-control and cancellation-propagation probes.
type blockingIndex struct {
	entered chan struct{} // one tick per Search call that started
	release chan struct{} // closed to let parked Searches finish
}

func newBlockingIndex() *blockingIndex {
	return &blockingIndex{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (b *blockingIndex) Search(ctx context.Context, queries []apknn.Vector, k int) ([][]apknn.Neighbor, error) {
	b.entered <- struct{}{}
	select {
	case <-ctx.Done():
		return nil, aperr.Canceled(ctx.Err())
	case <-b.release:
	}
	out := make([][]apknn.Neighbor, len(queries))
	for i := range out {
		out[i] = []apknn.Neighbor{{ID: i, Dist: 0}}
	}
	return out, nil
}

func (b *blockingIndex) ModeledTime() time.Duration { return 0 }

func (b *blockingIndex) Stats() apknn.Stats { return apknn.Stats{Backend: "blocking", Boards: 1} }

// TestAdmissionControl: once MaxInFlight requests are parked in the
// backend, the next request is refused with 429 + Retry-After and the
// rejection is counted; after release, the parked requests complete.
func TestAdmissionControl(t *testing.T) {
	idx := newBlockingIndex()
	srv := New(idx, Config{MaxInFlight: 2, BatchWindow: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}
	q := apknn.RandomQueries(14, 1, 8)[0]

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := client.Search(context.Background(), q, 1)
			results <- err
		}()
	}
	// Both requests admitted and parked inside the backend.
	for i := 0; i < 2; i++ {
		select {
		case <-idx.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("parked requests never reached the backend")
		}
	}

	_, err := client.Search(context.Background(), q, 1)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("3rd request: %v, want ErrSaturated", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.RetryAfter <= 0 {
		t.Errorf("saturated error carries no Retry-After: %v", err)
	}
	if st := srv.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}

	close(idx.release)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("parked request failed after release: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestFlushConcurrencyCap pins MaxConcurrentFlushes: with 2 backend slots
// and coalescing disabled, at most 2 flushes reach the backend at once no
// matter how many requests are admitted; the overflow waits for a slot and
// completes once the parked flushes release.
func TestFlushConcurrencyCap(t *testing.T) {
	idx := newBlockingIndex()
	srv := New(idx, Config{MaxInFlight: 16, BatchWindow: 0, MaxConcurrentFlushes: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}
	q := apknn.RandomQueries(16, 1, 8)[0]

	const n = 6
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := client.Search(context.Background(), q, 1)
			results <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-idx.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("parked flushes never reached the backend")
		}
	}
	// Both slots are held; no further flush may enter while they park.
	select {
	case <-idx.entered:
		t.Fatal("a third flush entered the backend past the 2-slot cap")
	case <-time.After(100 * time.Millisecond):
	}

	close(idx.release)
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Errorf("request failed after release: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCanceledRequestReturnsPromptly is the acceptance bound: a request
// whose context ends while queued returns within one batch window + one
// batch — here well under the deliberately huge window — and nothing
// leaks once the server is torn down.
func TestCanceledRequestReturnsPromptly(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ds := apknn.RandomDataset(15, 2000, 32)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Sharded), apknn.WithBoards(2), apknn.WithCapacity(250))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx, Config{MaxBatch: 64, BatchWindow: 2 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	client := &Client{BaseURL: ts.URL}
	q := apknn.RandomQueries(15, 1, 32)[0]

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Search(ctx, q, 3)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected an error from the timed-out request")
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("timed-out request took %v; want bounded by its own 30ms deadline, not the 2s window", elapsed)
	}
	// The expired member is discarded — never searched — when its flush
	// finally fires at the window.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Expired == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if st := srv.Stats(); st.Expired != 1 {
		t.Errorf("Expired = %d, want 1 (stats %+v)", st.Expired, st)
	}
	if st := idx.Stats(); st.Queries != 0 {
		t.Errorf("backend served %d queries; the expired request should never reach it", st.Queries)
	}
	ts.Close()
	closeCtx, cancelClose := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelClose()
	if err := srv.Close(closeCtx); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}

// TestServerSideTimeout: a request carrying timeout_ms gets 504 from the
// server once its budget expires, bounded well below the batch window.
func TestServerSideTimeout(t *testing.T) {
	idx := newBlockingIndex()
	srv := New(idx, Config{BatchWindow: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}

	q := apknn.RandomQueries(16, 1, 8)
	jsonBody, err := json.Marshal(SearchRequest{Query: q[0].String(), K: 1, TimeoutMS: 40})
	if err != nil {
		t.Fatal(err)
	}
	packedBody, err := appendPackedRequest(nil, 1, 40*time.Millisecond, q)
	if err != nil {
		t.Fatal(err)
	}
	// The budget is the body's in both codecs, and so is the refusal.
	for _, c := range []struct {
		contentType string
		body        []byte
	}{{"application/json", jsonBody}, {PackedMediaType, packedBody}} {
		start := time.Now()
		_, err := client.call(context.Background(), "POST", "/v1/search", c.contentType, c.body, new(bytes.Buffer))
		elapsed := time.Since(start)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 504 || apiErr.Message != "context deadline exceeded" {
			t.Fatalf("%s: got %v, want APIError 504 \"context deadline exceeded\"", c.contentType, err)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("%s: server-side timeout took %v", c.contentType, elapsed)
		}
	}
	close(idx.release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCancelPropagatesToBackend: when every rider of a flush hangs up, the
// shared batch context is canceled and the in-flight backend call aborts —
// the worker pool is not left streaming for nobody.
func TestCancelPropagatesToBackend(t *testing.T) {
	baseline := runtime.NumGoroutine()
	idx := newBlockingIndex()
	srv := New(idx, Config{BatchWindow: 0, MaxInFlight: 8})
	ts := httptest.NewServer(srv.Handler())
	client := &Client{BaseURL: ts.URL}
	q := apknn.RandomQueries(17, 1, 8)[0]

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.Search(ctx, q, 1)
		done <- err
	}()
	select {
	case <-idx.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the backend")
	}
	cancel() // the flush's only rider hangs up
	if err := <-done; err == nil {
		t.Fatal("canceled request returned no error")
	}
	// The parked Search must unblock via its context, not b.release —
	// which this test never closes. Drain: Close succeeds only if the
	// flush goroutine finished.
	closeCtx, cancelClose := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelClose()
	if err := srv.Close(closeCtx); err != nil {
		t.Fatalf("close after rider hangup: %v (backend likely still parked)", err)
	}
	ts.Close()
	waitGoroutines(t, baseline)
}

// TestGracefulShutdownDrains: requests already queued when Close begins
// are answered by the final drain flush, and late arrivals get 503.
func TestGracefulShutdownDrains(t *testing.T) {
	const nq = 4
	ds := apknn.RandomDataset(18, 500, 32)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Fast), apknn.WithCapacity(100))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx, Config{MaxBatch: 64, BatchWindow: time.Minute})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}
	queries := apknn.RandomQueries(19, nq, 32)
	exact := apknn.ExactSearch(ds, queries, 3, 2)

	var wg sync.WaitGroup
	errs := make([]error, nq)
	responses := make([]*SearchResponse, nq)
	for i := 0; i < nq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = client.Search(context.Background(), queries[i], 3)
		}(i)
	}
	// Wait until all requests are inside the batcher (admitted and
	// counted), then close: the minute-long window means only the drain
	// flush can answer them.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Requests < nq && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	closeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(closeCtx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < nq; i++ {
		if errs[i] != nil {
			t.Fatalf("queued request %d lost to shutdown: %v", i, errs[i])
		}
		got := Neighbors(responses[i].Neighbors)
		for j := range exact[i] {
			if got[j] != exact[i][j] {
				t.Errorf("request %d rank %d: %+v, want %+v", i, j, got[j], exact[i][j])
			}
		}
	}
	st := srv.Stats()
	if st.FlushesOnClose != 1 {
		t.Errorf("FlushesOnClose = %d, want 1 (stats %+v)", st.FlushesOnClose, st)
	}
	// Late arrival: refused, not queued forever.
	if _, err := client.Search(context.Background(), queries[0], 3); err == nil {
		t.Error("request after Close succeeded, want 503")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 503 {
			t.Errorf("request after Close: %v, want APIError 503", err)
		}
	}
}
