package knn

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// withProcs runs the test at GOMAXPROCS >= procs, so a shared scan has
// seats for helpers whatever the host's core count.
func withProcs(t *testing.T, procs int) {
	prev := runtime.GOMAXPROCS(max(procs, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSharedScansConcurrent runs shared scans from several callers at once,
// so their jobs overlap in the one slot and the pool's helpers move from one
// job to the next (and join whichever is published last): every result must
// be byte-identical to Linear.
func TestSharedScansConcurrent(t *testing.T) {
	withProcs(t, 4)
	rng := stats.NewRNG(71)
	// 1 MiB of d=128 vectors x 16 queries: four workers' worth even for the
	// AVX-512 loop.
	ds := bitvec.RandomDataset(rng, 1<<16, 128)
	queries := make([]bitvec.Vector, 16)
	want := make([][]Neighbor, len(queries))
	for i := range queries {
		queries[i] = bitvec.Random(rng, 128)
		want[i] = Linear(ds, queries[i], 10)
	}
	cfgs := []ScanConfig{{Workers: 4}, {Workers: 4, BlockVectors: 512}}
	if w, _ := cfgs[0].plan(ds, len(queries)); w != 4 {
		t.Fatalf("planned on %d workers, want 4", w)
	}
	const callers, rounds = 4, 6
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				cfg := cfgs[(c+r)%len(cfgs)]
				got, err := ScanBatch(context.Background(), ds, queries, 10, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				for qi := range want {
					if !equalNeighbors(got[qi], want[qi]) {
						t.Errorf("caller %d round %d block %d query %d: got %v, want %v", c, r, cfg.BlockVectors, qi, got[qi], want[qi])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// lateJob is a job of seats seats over a 4096 x 64 dataset of two queries,
// set up as scanAll sets one up, on a scratch no helper has seen: one from
// the pool may have been a published job, and a helper that loaded it then
// may still join it.
func lateJob(seats int) (*scanScratch, *bitvec.Dataset, []bitvec.Vector) {
	rng := stats.NewRNG(72)
	ds := bitvec.RandomDataset(rng, 4096, 64)
	queries := []bitvec.Vector{bitvec.Random(rng, 64), bitvec.Random(rng, 64)}
	s := new(scanScratch)
	s.reset(seats+1, len(queries), 5, nil)
	for i, q := range queries {
		s.qws[i] = q.Words()
	}
	s.words, s.wordsPV, s.n, s.block = ds.Words(), ds.WordsPerVector(), ds.Len(), 512
	s.next.Store(0)
	s.open(seats)
	return s, ds, queries
}

// TestLateHelperRefused drives one job's seats by hand: a helper that joins
// while the job is open takes slot 1 and scans into its heaps; once the
// caller has closed the job, a helper's join is refused, it writes to no
// heap and moves neither the cursor nor the state, and the merge over the
// slots that joined is Linear's answer.
func TestLateHelperRefused(t *testing.T) {
	const k = 5
	s, ds, queries := lateJob(2)
	nq := len(queries)
	slot, ok := s.join()
	if !ok || slot != 1 {
		t.Fatalf("the first helper of an open job got slot %d, %v; want 1, true", slot, ok)
	}
	s.scanBlocks(slot)
	if s.finish() {
		t.Fatal("a helper finishing before close woke a caller that had not parked")
	}
	s.scanBlocks(0) // the caller finds the cursor spent
	if joined := s.close(); joined != 1 {
		t.Fatalf("close counted %d joined helpers, want 1", joined)
	}
	s.await(1)
	cursor, state := s.next.Load(), s.state.Load()
	joinedHeaps := make([][]Neighbor, nq)
	for qi := range joinedHeaps {
		joinedHeaps[qi] = append([]Neighbor(nil), s.heaps[nq+qi].h...)
	}

	if slot, ok := s.join(); ok {
		t.Fatalf("a helper joined a closed job, in slot %d", slot)
	}
	if c, st := s.next.Load(), s.state.Load(); c != cursor || st != state {
		t.Errorf("refused join moved the cursor %d -> %d or the state %x -> %x", cursor, c, state, st)
	}
	for qi := 0; qi < nq; qi++ {
		if n := s.heaps[qi].Len(); n != 0 {
			t.Errorf("query %d: the caller's heap holds %d, want 0 (the helper took every block)", qi, n)
		}
		if got := s.heaps[nq+qi].h; !equalNeighbors(got, joinedHeaps[qi]) {
			t.Errorf("query %d: the joined helper's heap changed after close: %v -> %v", qi, joinedHeaps[qi], got)
		}
		if n := s.heaps[2*nq+qi].Len(); n != 0 {
			t.Errorf("query %d: the refused helper's slot holds %d candidates", qi, n)
		}
	}
	s.heads = s.heads[:2]
	for qi, q := range queries {
		if got, want := s.merge(qi, nq, k), Linear(ds, q, k); !equalNeighbors(got, want) {
			t.Errorf("query %d: merged %v, want %v", qi, got, want)
		}
	}
}

// TestAwaitParksForLateHelper: a caller whose joined helper has not finished
// by awaitSpin parks instead of spinning on, is not released before the
// helper finishes, and is woken by it — and a parked caller's job refuses
// joins like any closed one.
func TestAwaitParksForLateHelper(t *testing.T) {
	s, _, _ := lateJob(1)
	slot, ok := s.join()
	if !ok {
		t.Fatal("a helper was refused a seat of an open job")
	}
	s.scanBlocks(0) // the caller takes every block; the helper is held up
	joined := s.close()
	returned := make(chan struct{})
	go func() {
		s.await(joined)
		close(returned)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.state.Load()&parkedBit == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the caller did not park while its helper was held up")
		}
		runtime.Gosched()
	}
	if _, ok := s.join(); ok {
		t.Fatal("a helper joined a job whose caller had parked")
	}
	select {
	case <-returned:
		t.Fatal("await returned before the joined helper finished")
	default:
	}
	s.scanBlocks(slot)
	if !s.finish() {
		t.Fatal("the last helper to finish did not wake its parked caller")
	}
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the woken caller did not return")
	}
}

// TestSharedScanLeavesNothing: once a shared scan returns, the slot no
// longer holds its job (no helper or pool keeps the slab reachable), and
// within a bounded wait every helper has left and the goroutine count is
// back at its baseline.
func TestSharedScanLeavesNothing(t *testing.T) {
	withProcs(t, 2)
	rng := stats.NewRNG(73)
	ds := bitvec.RandomDataset(rng, 1<<14, 128)
	queries := []bitvec.Vector{bitvec.Random(rng, 128), bitvec.Random(rng, 128)}
	baseline := runtime.NumGoroutine()
	for r := 0; r < 20; r++ {
		got, err := scanForced(context.Background(), ds, queries, 8, 2, 256)
		if err != nil {
			t.Fatal(err)
		}
		if j := jobSlot.Load(); j != nil {
			t.Fatalf("round %d: the slot still holds a job after the scan returned", r)
		}
		for qi, q := range queries {
			if want := Linear(ds, q, 8); !equalNeighbors(got[qi], want) {
				t.Fatalf("round %d query %d: got %v, want %v", r, qi, got[qi], want)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for helpers.Load() != 0 || runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("helpers %x still counted, %d goroutines against a baseline of %d\n%s",
				helpers.Load(), runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkScanBatchConcurrent is kernel_large's request (n = 1M, d = 128,
// k = 16, 8 queries) from GOMAXPROCS callers at once: what the shared scan's
// hand-off costs when every core already has a caller of its own, which a
// single closed-loop client never shows.
func BenchmarkScanBatchConcurrent(b *testing.B) {
	ds, _ := benchDataset(1<<20, 128)
	rng := stats.NewRNG(32)
	queries := make([]bitvec.Vector, 8)
	for i := range queries {
		queries[i] = bitvec.Random(rng, 128)
	}
	b.SetBytes(int64(len(queries) * ds.Len() * ds.WordsPerVector() * 8))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := ScanBatch(context.Background(), ds, queries, 16, ScanConfig{}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
