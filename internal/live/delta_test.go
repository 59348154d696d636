package live

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/apstats"
	"repro/internal/bitvec"
	"repro/internal/stats"
)

// TestDeltaSnapshotStableUnderAppend is the aliasing regression test: a
// snapshot taken from the delta store must keep returning the exact same
// bytes while appends keep landing. Both halves of the snapshot rule run:
// appends that land in place, past the snapshot's end in the very array it
// reads, and appends that reallocate, copying that array while it is read.
// Run it under -race.
func TestDeltaSnapshotStableUnderAppend(t *testing.T) {
	const dim, warm, churn = 96, 300, 3000
	rng := stats.NewRNG(21)
	d := newDelta(dim, 0)
	var mu sync.Mutex // stands in for the engine writer lock
	want := make([]bitvec.Vector, warm)
	for i := range want {
		v := bitvec.Random(rng, dim)
		want[i] = v
		mu.Lock()
		d.Append(v)
		mu.Unlock()
	}
	snap := d.snapshot()
	snapArray := &snap.Words()[0]

	// inPlace counts appends into the snapshot's own array, reallocs the
	// appends that moved the store to a new one.
	var inPlace, reallocs int
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := stats.NewRNG(22)
		for i := 0; i < churn; i++ {
			mu.Lock()
			before, shared := cap(d.Words()), &d.Words()[0] == snapArray
			d.Append(bitvec.Random(r, dim))
			switch {
			case cap(d.Words()) != before:
				reallocs++
			case shared:
				inPlace++
			}
			mu.Unlock()
		}
	}()
	// Re-read the snapshot repeatedly while the writer churns; every read
	// must see the original bytes, and the snapshot length must not move.
	for pass := 0; pass < 50; pass++ {
		if snap.Len() != warm {
			t.Fatalf("snapshot length moved: %d", snap.Len())
		}
		for i := 0; i < warm; i++ {
			if got := snap.At(i); !got.Equal(want[i]) {
				t.Fatalf("pass %d: snapshot entry %d changed:\n got %v\nwant %v", pass, i, got, want[i])
			}
		}
	}
	<-done
	if d.Len() != warm+churn {
		t.Fatalf("store length = %d, want %d", d.Len(), warm+churn)
	}
	if inPlace == 0 || reallocs == 0 {
		t.Fatalf("appends: %d in place in the snapshot's array, %d reallocating; want both", inPlace, reallocs)
	}
}

// TestLiveSearchSnapshotStableUnderInsert is the end-to-end version: a
// search result captured before a burst of concurrent Inserts must be
// reproducible from the IDs and distances it reported, i.e. the snapshot
// the search ran on was not mutated underneath it.
func TestLiveSearchSnapshotStableUnderInsert(t *testing.T) {
	const dim, n0 = 64, 128
	rng := stats.NewRNG(23)
	ds := bitvec.RandomDataset(rng, n0, dim)
	idx, err := New(ds, func(sub *bitvec.Dataset) (apstats.ExcludingSearcher, error) {
		return &cpuSearcher{ds: sub}, nil
	}, Options{CompactThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	ctx := context.Background()

	// Seed the delta so the search path crosses it.
	inserted := make([]bitvec.Vector, 40)
	for i := range inserted {
		inserted[i] = bitvec.Random(rng, dim)
		if _, err := idx.Insert(ctx, inserted[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := stats.NewRNG(24)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := idx.Insert(ctx, bitvec.Random(r, dim)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	q := bitvec.Random(rng, dim)
	for i := 0; i < 200; i++ {
		res, err := idx.Search(ctx, []bitvec.Vector{q}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(res[0]) != 8 {
			t.Fatalf("got %d results", len(res[0]))
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkLiveDeltaSearch is one query per Search over a base of 700
// vectors and a delta of 1,024, 33,068 or 262,144 entries at d=64, with
// compaction off so the delta only grows: the cost of the exact delta scan
// beside the base as the delta outgrows the compaction threshold.
func BenchmarkLiveDeltaSearch(b *testing.B) {
	const dim, n0, k = 64, 700, 8
	for _, deltaN := range []int{1024, 33068, 262144} {
		rng := stats.NewRNG(uint64(deltaN))
		idx, err := New(bitvec.RandomDataset(rng, n0, dim), compileCPU, Options{CompactThreshold: -1})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		for i := 0; i < deltaN; i++ {
			if _, err := idx.Insert(ctx, bitvec.Random(rng, dim)); err != nil {
				b.Fatal(err)
			}
		}
		queries := make([][]bitvec.Vector, 64)
		for i := range queries {
			queries[i] = []bitvec.Vector{bitvec.Random(rng, dim)}
		}
		b.Run(fmt.Sprintf("delta%d", deltaN), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(ctx, queries[i%len(queries)], k); err != nil {
					b.Fatal(err)
				}
			}
		})
		idx.Close()
	}
}
