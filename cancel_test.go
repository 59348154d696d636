package apknn_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	apknn "repro"
)

// waitGoroutines asserts the goroutine count returns to within slack of the
// baseline — the leak check for the worker pools and board fan-outs (no
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
		t.Run(string(kind), func(t *testing.T) {
			idx, err := apknn.Open(ds, apknn.WithBackend(kind), apknn.WithCapacity(50))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := idx.Search(ctx, queries, 3); !errors.Is(err, apknn.ErrCanceled) {
				t.Errorf("%v, want ErrCanceled", err)
			}
		})
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

// TestSearchCancelMidFlight cancels a Search part-way through, on the fast
// substrate (sharded: one kernel scan) and on the simulated boards (ap:
// boards streaming concurrently, checked at every partition boundary). The
// call must fail with ErrCanceled, leak no goroutines, and leave the index
// whole: a follow-up Search is byte-identical to the exact scan. "Part-way"
// is half the context polls an undisturbed Search makes, so where the cancel
// lands is a function of the code's check-points, never of how fast it runs.
func TestSearchCancelMidFlight(t *testing.T) {
	for _, c := range []struct {
		kind             apknn.BackendKind
		n, dim, capacity int
		boards, nqueries int
	}{
		{kind: apknn.Sharded, n: 1 << 16, dim: 64, boards: 4, nqueries: 16},
		{kind: apknn.AP, n: 1000, dim: 32, capacity: 100, boards: 2, nqueries: 4},
	} {
		t.Run(string(c.kind), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			const k = 10
			ds := apknn.RandomDataset(23, c.n, c.dim)
			idx, err := apknn.Open(ds, apknn.WithBackend(c.kind), apknn.WithBoards(c.boards), apknn.WithCapacity(c.capacity))
			if err != nil {
				t.Fatal(err)
			}
			queries := apknn.RandomQueries(30, c.nqueries, c.dim)

			undisturbed := newPollCtx(0)
			defer undisturbed.cancel()
			if _, err := idx.Search(undisturbed, queries, k); err != nil {
				t.Fatalf("undisturbed search: %v", err)
			}
			polls := undisturbed.polls.Load()
			if polls < 3 {
				t.Fatalf("an undisturbed search polled its context %d times; want a check-point before, in and after the scan", polls)
			}

			at := (polls + 1) / 2
			ctx := newPollCtx(at)
			defer ctx.cancel()
			if _, err := idx.Search(ctx, queries, k); !errors.Is(err, apknn.ErrCanceled) {
				t.Fatalf("search canceled at poll %d of %d: %v, want ErrCanceled", at, polls, err)
			}
			t.Logf("canceled at poll %d of %d", at, polls)
			waitGoroutines(t, baseline)

			got, err := idx.Search(context.Background(), queries, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := apknn.ExactSearch(ds, queries, k, 4); !reflect.DeepEqual(got, want) {
				t.Fatalf("search after the cancel diverged from the exact scan")
			}
		})
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

// TestCanceledBatchCharges pins where the two fleets still differ. A batch
// canceled part-way charges nothing on the board-fleet meter (fast and
// sharded charge an answered batch, and a canceled one is not answered), but
// the simulated boards of ap keep what they streamed and loaded before the
// cancel reached them. Both count no query and no batch.
func TestCanceledBatchCharges(t *testing.T) {
	const n, dim, capacity, boards, k = 1000, 32, 100, 2, 10
	ds := apknn.RandomDataset(23, n, dim)
	queries := apknn.RandomQueries(30, 4, dim)
	for _, kind := range []apknn.BackendKind{apknn.Sharded, apknn.AP} {
		open := func() apknn.Index {
			idx, err := apknn.Open(ds, apknn.WithBackend(kind), apknn.WithBoards(boards), apknn.WithCapacity(capacity))
			if err != nil {
				t.Fatal(err)
			}
			return idx
		}
		undisturbed := newPollCtx(0)
		answered := open()
		if _, err := answered.Search(undisturbed, queries, k); err != nil {
			t.Fatalf("%s: undisturbed search: %v", kind, err)
		}
		undisturbed.cancel()
		full := answered.Stats()

		at := (undisturbed.polls.Load() + 1) / 2
		ctx := newPollCtx(at)
		canceled := open()
		if _, err := canceled.Search(ctx, queries, k); !errors.Is(err, apknn.ErrCanceled) {
			t.Fatalf("%s: search canceled at poll %d: %v, want ErrCanceled", kind, at, err)
		}
		ctx.cancel()
		st := canceled.Stats()
		if st.Queries != 0 || st.Batches != 0 {
			t.Errorf("%s: a canceled batch counted %d queries in %d batches", kind, st.Queries, st.Batches)
		}
		switch kind {
		case apknn.Sharded:
			if st.SymbolsStreamed != 0 || st.Reconfigs != 0 || canceled.ModeledTime() != 0 {
				t.Errorf("sharded: a canceled batch charged %d symbols, %d reconfigurations, %v; want none",
					st.SymbolsStreamed, st.Reconfigs, canceled.ModeledTime())
			}
		case apknn.AP:
			if st.Reconfigs <= 0 || st.Reconfigs >= full.Reconfigs || canceled.ModeledTime() <= 0 {
				t.Errorf("ap: a batch canceled at poll %d charged %d of a full batch's %d reconfigurations (%v); want some, not all",
					at, st.Reconfigs, full.Reconfigs, canceled.ModeledTime())
			}
		}
	}
}
