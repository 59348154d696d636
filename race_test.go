package apknn_test

import (
	"context"
	"sync"
	"testing"

	apknn "repro"
)

// TestConcurrentServingIsRaceFree hammers one long-lived Index — the shape
// apserve holds for the life of the process — from parallel goroutines
// mixing one- and two-query Searches, Stats, and ModeledTime. Under -race this
// locks in that the counters/Stats snapshot path and the board-fleet
// meter tolerate concurrent readers while queries are in
// flight; the results themselves must stay byte-identical to the exact
// scan throughout.
func TestConcurrentServingIsRaceFree(t *testing.T) {
	const (
		n, dim, k = 4096, 64, 5
		clients   = 8
		rounds    = 6
	)
	ds := apknn.RandomDataset(61, n, dim)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Sharded), apknn.WithBoards(4))
	if err != nil {
		t.Fatal(err)
	}
	queries := apknn.RandomQueries(62, clients, dim)
	exact := apknn.ExactSearch(ds, queries, k, 4)
	ctx := context.Background()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := []apknn.Vector{queries[c]}
			for r := 0; r < rounds; r++ {
				switch r % 3 {
				case 0: // one-query Search
					res, err := idx.Search(ctx, mine, k)
					if err != nil {
						t.Errorf("client %d round %d: %v", c, r, err)
						return
					}
					for j := range exact[c] {
						if res[0][j] != exact[c][j] {
							t.Errorf("client %d round %d rank %d: %+v, want %+v",
								c, r, j, res[0][j], exact[c][j])
							return
						}
					}
				case 1: // two-query Search
					res, err := idx.Search(ctx, []apknn.Vector{queries[c], queries[c]}, k)
					if err != nil {
						t.Errorf("client %d round %d: %v", c, r, err)
						return
					}
					for qi := range res {
						for j := range exact[c] {
							if res[qi][j] != exact[c][j] {
								t.Errorf("client %d round %d query %d diverged", c, r, qi)
								return
							}
						}
					}
				case 2: // snapshot readers racing the writers above
					st := idx.Stats()
					if st.Backend != apknn.Sharded || st.Boards != 4 {
						t.Errorf("client %d round %d: snapshot %+v", c, r, st)
						return
					}
					_ = idx.ModeledTime()
				}
			}
		}(c)
	}
	wg.Wait()

	// Monotonic totals survive the storm: every goroutine's queries are
	// accounted exactly once.
	st := idx.Stats()
	wantQueries := int64(0)
	for c := 0; c < clients; c++ {
		for r := 0; r < rounds; r++ {
			switch r % 3 {
			case 0:
				wantQueries++
			case 1:
				wantQueries += 2
			}
		}
	}
	if st.Queries != wantQueries {
		t.Errorf("Queries = %d, want %d", st.Queries, wantQueries)
	}
	if st.SymbolsStreamed <= 0 || st.Reconfigs <= 0 {
		t.Errorf("modeled meters empty after load: %+v", st)
	}
}
