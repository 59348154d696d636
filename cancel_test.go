package apknn_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	apknn "repro"
)

// waitGoroutines asserts the goroutine count returns to within slack of the
// baseline — the leak check for the worker pools and batch pipelines (no
// external goleak dependency; a converging count is the same evidence).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	const slack = 2
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

// TestSearchCanceledBeforeStart: a pre-canceled context fails every backend
// promptly with ErrCanceled and leaks nothing.
func TestSearchCanceledBeforeStart(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ds := apknn.RandomDataset(21, 200, 32)
	queries := apknn.RandomQueries(22, 4, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range []apknn.BackendKind{apknn.AP, apknn.Fast, apknn.Sharded, apknn.CPU, apknn.GPU, apknn.FPGA, apknn.Approx} {
		idx, err := apknn.Open(ds, apknn.WithBackend(kind), apknn.WithCapacity(50))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := idx.Search(ctx, queries, 3); !errors.Is(err, apknn.ErrCanceled) {
			t.Errorf("%s: %v, want ErrCanceled", kind, err)
		}
	}
	waitGoroutines(t, baseline)
}

// pollCtx is a context that cancels itself at its at-th Err or Done poll, so
// a test's cancellation is a function of how many check-points the code
// under test has passed, never of how long it took to reach them.
type pollCtx struct {
	context.Context
	cancel context.CancelFunc
	at     int64
	polls  atomic.Int64
}

// newPollCtx returns a context canceled at its at-th poll; at <= 0 never
// cancels and only counts.
func newPollCtx(at int64) *pollCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &pollCtx{Context: ctx, cancel: cancel, at: at}
}

func (c *pollCtx) poll() {
	if c.polls.Add(1) == c.at {
		c.cancel()
	}
}

func (c *pollCtx) Err() error            { c.poll(); return c.Context.Err() }
func (c *pollCtx) Done() <-chan struct{} { c.poll(); return c.Context.Done() }

// TestSearchBatchCancelMidFlight cancels a sharded SearchBatch in the middle
// of its pipeline. The pipeline must stop promptly (bounded by one batch),
// deliver exactly one result per submitted batch — the remainder carrying
// ErrCanceled — close the channel, and leak no goroutines. Results delivered
// before the cancellation stay valid. "The middle" is half the context polls
// an undisturbed run makes: a run polls a fixed number of times per batch,
// so by then the first batch has long been answered and the last not begun,
// however fast the scan is.
func TestSearchBatchCancelMidFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const dim, k, numBatches = 64, 10, 12
	ds := apknn.RandomDataset(23, 1<<16, dim)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Sharded), apknn.WithBoards(4))
	if err != nil {
		t.Fatal(err)
	}
	batches := make([][]apknn.Vector, numBatches)
	for i := range batches {
		batches[i] = apknn.RandomQueries(uint64(30+i), 16, dim)
	}
	want := apknn.ExactSearch(ds, batches[0], k, 4)

	undisturbed := newPollCtx(0)
	defer undisturbed.cancel()
	for res := range idx.SearchBatch(undisturbed, batches, k) {
		if res.Err != nil {
			t.Fatalf("undisturbed batch %d: %v", res.Batch, res.Err)
		}
	}
	polls := undisturbed.polls.Load()
	if polls < 2*numBatches {
		t.Fatalf("an undisturbed run polled its context %d times; want a check-point in every stage of every batch", polls)
	}

	ctx := newPollCtx(polls / 2)
	defer ctx.cancel()
	seen, canceled := 0, 0
	for res := range idx.SearchBatch(ctx, batches, k) {
		if res.Batch != seen {
			t.Fatalf("batch %d delivered at position %d", res.Batch, seen)
		}
		seen++
		switch {
		case res.Err != nil && !errors.Is(res.Err, apknn.ErrCanceled):
			t.Fatalf("batch %d: %v, want ErrCanceled", res.Batch, res.Err)
		case res.Err != nil:
			canceled++
		case res.Batch == 0:
			// Completed before the cancel; must be identical to the exact scan.
			for qi := range want {
				for j := range want[qi] {
					if res.Results[qi][j] != want[qi][j] {
						t.Fatalf("batch 0 query %d rank %d: %+v, want %+v", qi, j, res.Results[qi][j], want[qi][j])
					}
				}
			}
		}
	}
	if seen != numBatches {
		t.Fatalf("received %d results, want %d", seen, numBatches)
	}
	if canceled == 0 || canceled == numBatches {
		t.Errorf("%d of %d batches observed a cancellation at poll %d of %d; want some, and not the first",
			canceled, numBatches, polls/2, polls)
	}
	waitGoroutines(t, baseline)
}

// TestSearchBatchCompletedThenCanceled: canceling the context after the
// pipeline already finished must not disturb the delivered results — the
// buffered channel still yields every completed batch.
func TestSearchBatchCompletedThenCanceled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ds := apknn.RandomDataset(41, 500, 32)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Fast), apknn.WithCapacity(100), apknn.WithBoards(2))
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]apknn.Vector{
		apknn.RandomQueries(42, 4, 32),
		apknn.RandomQueries(43, 4, 32),
	}
	ctx, cancel := context.WithCancel(context.Background())
	out := idx.SearchBatch(ctx, batches, 5)

	// Let the whole pipeline finish before anything is consumed, then
	// cancel. Every batch was computed under a live context, so every
	// buffered result must still arrive intact.
	waitGoroutines(t, baseline) // pipeline goroutines exit once all results are buffered
	cancel()

	got := 0
	for res := range out {
		if res.Err != nil {
			t.Fatalf("batch %d after completed-then-cancel: %v", res.Batch, res.Err)
		}
		want := apknn.ExactSearch(ds, batches[res.Batch], 5, 2)
		for qi := range want {
			for j := range want[qi] {
				if res.Results[qi][j] != want[qi][j] {
					t.Fatalf("batch %d query %d rank %d diverged", res.Batch, qi, j)
				}
			}
		}
		got++
	}
	if got != len(batches) {
		t.Fatalf("received %d results, want %d", got, len(batches))
	}
}

// TestQueryCancelUnblocksWorkers: Search on a canceled context must not
// strand worker-pool slots — a follow-up query on the same index succeeds.
func TestQueryCancelUnblocksWorkers(t *testing.T) {
	ds := apknn.RandomDataset(51, 1<<15, 64)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Sharded), apknn.WithBoards(4), apknn.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	queries := apknn.RandomQueries(52, 8, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := idx.Search(ctx, queries, 5); !errors.Is(err, apknn.ErrCanceled) {
		t.Fatalf("canceled search: %v, want ErrCanceled", err)
	}
	got, err := idx.Search(context.Background(), queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := apknn.ExactSearch(ds, queries, 5, 4)
	for qi := range want {
		for j := range want[qi] {
			if got[qi][j] != want[qi][j] {
				t.Fatalf("post-cancel query diverged at %d/%d", qi, j)
			}
		}
	}
}
