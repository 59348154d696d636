package live

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apstats"
	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/wal/memfs"
)

// historySearch is one search a searcher made, with its window: every write
// up to lo was acknowledged before it was called, and no write past hi had
// been called when it returned.
type historySearch struct {
	q      bitvec.Vector
	k      int
	lo, hi int
	got    []knn.Neighbor
}

// TestLiveHistoriesMatchOracle checks searches that overlap writes against
// the oracle. One writer issues a seeded sequence of inserts and deletes —
// half of the deletes aimed at the newest vectors, so many land in the delta
// while a compile runs — beside 3 searchers and background compaction at a
// low threshold. Each search must be byte-identical to the oracle's top-k
// after some prefix of the writes inside its window. It runs without a
// directory and durably (SyncNever, on the in-memory filesystem), where a
// process crash after the last write must reopen with every write.
func TestLiveHistoriesMatchOracle(t *testing.T) {
	const dim, n0, writes, seed = 64, 48, 400, 7
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			rng := stats.NewRNG(seed)
			ds := bitvec.RandomDataset(rng, n0, dim)
			ops := historyScript(rng, n0, dim, writes)
			opts := Options{CompactThreshold: 8}
			// Once the writer runs, each compile waits for three more writes
			// (or the last), so every compaction has churn to carry.
			var writing atomic.Bool
			wrote, written := make(chan struct{}, 1), make(chan struct{})
			compile := func(ds *bitvec.Dataset) (apstats.ExcludingSearcher, error) {
				for i := 0; i < 3 && writing.Load(); i++ {
					select {
					case <-wrote:
					case <-written:
					}
				}
				return compileCPU(ds)
			}
			fsys := memfs.New()
			var x *Index
			var err error
			if durable {
				x, _, err = openDurable(fsys, ds, compile, opts, DurableOptions{Dir: faultDir, Policy: wal.SyncNever})
			} else {
				x, err = New(ds, compile, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			var called, acked atomic.Int64
			var wg sync.WaitGroup
			// The writer hands out two searches per write. The searchers run
			// them while it carries on, and it blocks once three are waiting,
			// so the searches spread over the whole history.
			grant := make(chan struct{}, 3)
			found := make([][]historySearch, 3)
			for s := range found {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					r := stats.NewRNG(uint64(seed*10 + s))
					for range grant {
						lo := int(acked.Load())
						q := bitvec.Random(r, dim)
						if i := lo - 1 - r.Intn(8); i >= 0 && ops[i].kind == 'i' {
							q = ops[i].vec // a recent insert: its own nearest neighbor
						}
						k := []int{1, 6, n0}[r.Intn(3)]
						res, err := x.Search(ctx, []bitvec.Vector{q}, k)
						if err != nil {
							t.Errorf("seed %d: search: %v", seed, err)
							return
						}
						found[s] = append(found[s], historySearch{q: q, k: k, lo: lo, hi: int(called.Load()), got: res[0]})
					}
				}(s)
			}
			writing.Store(true)
			for i, op := range ops {
				grant <- struct{}{}
				grant <- struct{}{}
				called.Store(int64(i + 1))
				if op.kind == 'i' {
					if id, err := x.Insert(ctx, op.vec); err != nil || id != op.id {
						t.Errorf("seed %d: write %d: insert got id %d, %v; want id %d", seed, i+1, id, err, op.id)
						break
					}
				} else if err := x.Delete(ctx, op.id); err != nil {
					t.Errorf("seed %d: write %d: delete %d: %v", seed, i+1, op.id, err)
					break
				}
				acked.Store(int64(i + 1))
				select {
				case wrote <- struct{}{}:
				default:
				}
			}
			close(written)
			close(grant)
			wg.Wait()
			if err := x.Close(); err != nil || t.Failed() {
				t.Fatal(err)
			}
			var searches []historySearch
			for _, f := range found {
				searches = append(searches, f...)
			}
			m := checkHistory(t, seed, ds, ops, searches)
			if durable {
				re, _, err := openDurable(fsys.Image(false), nil, compileCPU, Options{CompactThreshold: -1},
					DurableOptions{Dir: faultDir, Policy: wal.SyncNever})
				if err != nil {
					t.Fatalf("seed %d: reopen: %v", seed, err)
				}
				defer re.Close()
				if !recoveredMatches(re, m, n0+countInserts(ops), []bitvec.Vector{bitvec.Random(rng, dim), ops[len(ops)-1].vec}) {
					t.Fatalf("seed %d: reopened Len=%d NextID=%d, want every write: Len=%d", seed, re.Len(), re.NextID(), len(m.vecs))
				}
			}
		})
	}
}

// historyScript is writes seeded inserts and deletes over n0 seed vectors.
// Every insert op carries the ID it is assigned and is searched for later;
// half of the deletes pick among the 8 newest live vectors.
func historyScript(rng *stats.RNG, n0, dim, writes int) []faultOp {
	live := make([]int, n0)
	for i := range live {
		live[i] = i
	}
	var ops []faultOp
	for len(ops) < writes {
		if rng.Intn(3) > 0 || len(live) == 0 {
			v := bitvec.Random(rng, dim)
			if len(ops) > 0 && ops[len(ops)-1].kind == 'i' && rng.Intn(4) == 0 {
				v = ops[len(ops)-1].vec.Clone() // an exact tie
			}
			ops = append(ops, faultOp{kind: 'i', vec: v, id: n0 + countInserts(ops)})
			live = append(live, ops[len(ops)-1].id)
			continue
		}
		j := rng.Intn(len(live))
		if rng.Intn(2) == 0 {
			j = len(live) - 1 - rng.Intn(min(8, len(live)))
		}
		ops = append(ops, faultOp{kind: 'd', id: live[j]})
		live = append(live[:j], live[j+1:]...)
	}
	return ops
}

func countInserts(ops []faultOp) int {
	n := 0
	for _, op := range ops {
		if op.kind == 'i' {
			n++
		}
	}
	return n
}

// checkHistory replays the writes into the oracle and requires each search
// to match its top-k after some prefix inside the search's window. It
// returns the oracle after every write.
func checkHistory(t *testing.T, seed uint64, ds *bitvec.Dataset, ops []faultOp, searches []historySearch) *mirror {
	t.Helper()
	sort.Slice(searches, func(i, j int) bool { return searches[i].lo < searches[j].lo })
	m := newMirror(ds)
	var open []historySearch // windows reaching the current prefix, unmatched
	next := 0
	for p := 0; ; p++ {
		for ; next < len(searches) && searches[next].lo == p; next++ {
			open = append(open, searches[next])
		}
		kept := open[:0]
		for _, s := range open {
			if neighborsEqual(s.got, m.search(s.q, s.k)) {
				continue
			}
			if s.hi == p {
				t.Fatalf("seed %d: a search (k=%d) overlapping writes %d..%d matches the oracle after none of them: got %v",
					seed, s.k, s.lo, s.hi, s.got)
			}
			kept = append(kept, s)
		}
		open = kept
		if p == len(ops) {
			break
		}
		if op := ops[p]; op.kind == 'i' {
			m.insert(op.id, op.vec)
		} else {
			m.delete(op.id)
		}
	}
	t.Logf("seed %d: %d searches checked against %d writes", seed, len(searches), len(ops))
	return m
}
