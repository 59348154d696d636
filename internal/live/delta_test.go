package live

import (
	"context"
	"sync"
	"testing"

	"repro/internal/apstats"
	"repro/internal/bitvec"
	"repro/internal/stats"
)

// TestDeltaSnapshotStableUnderAppend is the aliasing regression test: a
// snapshot taken from the delta store must keep returning the exact same
// bytes while appends keep landing — the property bitvec.Dataset.At cannot
// give (Append may reallocate the storage an earlier At aliases), and the
// reason the delta segment exists. Run it under -race.
func TestDeltaSnapshotStableUnderAppend(t *testing.T) {
	const dim, warm, churn = 96, 300, 3000 // warm crosses a chunk boundary
	rng := stats.NewRNG(21)
	d := newDelta(dim, 0)
	var mu sync.Mutex // stands in for the engine writer lock
	want := make([]bitvec.Vector, warm)
	for i := range want {
		v := bitvec.Random(rng, dim)
		want[i] = v
		mu.Lock()
		d.append(v)
		mu.Unlock()
	}
	snap := d.snapshot()

	done := make(chan struct{})
	go func() {
		defer close(done)
		r := stats.NewRNG(22)
		for i := 0; i < churn; i++ {
			mu.Lock()
			d.append(bitvec.Random(r, dim))
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
			if got := snap.vector(i); !got.Equal(want[i]) {
				t.Fatalf("pass %d: snapshot entry %d changed:\n got %v\nwant %v", pass, i, got, want[i])
			}
		}
	}
	<-done
	if d.snapshot().Len() != warm+churn {
		t.Fatalf("store length = %d, want %d", d.snapshot().Len(), warm+churn)
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
