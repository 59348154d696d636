package live

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aperr"
	"repro/internal/apstats"
	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/stats"
	"repro/internal/workload"
)

// compileCPU is the test backend: an exact linear scan with the shared
// tie-break, no modeled time, one "partition" per capacity-sized range so
// the reconfiguration accounting has something to charge.
func compileCPU(t *testing.T) CompileFunc {
	return func(ds *bitvec.Dataset) (apstats.Index, error) {
		return &cpuSearcher{ds: ds}, nil
	}
}

type cpuSearcher struct {
	ds      *bitvec.Dataset
	modeled atomic.Int64
	pairs   atomic.Int64
}

func (c *cpuSearcher) Search(ctx context.Context, queries []bitvec.Vector, k int) ([][]knn.Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return nil, aperr.Canceled(err)
	}
	out := make([][]knn.Neighbor, len(queries))
	for i, q := range queries {
		out[i] = knn.Linear(c.ds, q, k)
	}
	c.modeled.Add(int64(time.Duration(len(queries)) * time.Microsecond))
	c.pairs.Add(int64(c.ds.Len()) * int64(len(queries)))
	return out, nil
}

func (c *cpuSearcher) ModeledTime() time.Duration { return time.Duration(c.modeled.Load()) }

func (c *cpuSearcher) Stats() apstats.Stats {
	return apstats.Stats{Partitions: (c.ds.Len() + 1023) / 1024, CandidatesScanned: c.pairs.Load()}
}

// excludingSearcher is cpuSearcher as an apstats.ExcludingSearcher: like the
// production cpu/fast/sharded/gpu/fpga backends it answers with the scan
// kernel and takes the tombstones as an exclusion set. The live index must
// then never fall back to the over-fetching Search, which here is an error.
type excludingSearcher struct{ cpuSearcher }

func (c *excludingSearcher) Search(context.Context, []bitvec.Vector, int) ([][]knn.Neighbor, error) {
	return nil, errors.New("live index over-fetched around a base that can exclude")
}

func (c *excludingSearcher) SearchExcluding(ctx context.Context, queries []bitvec.Vector, k int, dead bitvec.Bitset) ([][]knn.Neighbor, error) {
	c.modeled.Add(int64(time.Duration(len(queries)) * time.Microsecond))
	c.pairs.Add(int64(c.ds.Len()) * int64(len(queries)))
	return knn.ScanBatch(ctx, c.ds, queries, k, knn.ScanConfig{Exclude: dead})
}

func compileExcluding(ds *bitvec.Dataset) (apstats.Index, error) {
	return &excludingSearcher{cpuSearcher{ds: ds}}, nil
}

// baseKinds are the two base searchers every search-path test runs over, so
// neither of Search's paths goes untested: one the index hands its
// tombstones to, one it over-fetches and filters around.
func baseKinds(t *testing.T) map[string]CompileFunc {
	return map[string]CompileFunc{"excluding": compileExcluding, "overfetch": compileCPU(t)}
}

// mirror is the brute-force reference the property test compares against:
// a plain map of live vectors searched by full scan + sort.
type mirror struct {
	dim  int
	vecs map[int]bitvec.Vector
}

func newMirror(ds *bitvec.Dataset) *mirror {
	m := &mirror{dim: ds.Dim(), vecs: make(map[int]bitvec.Vector, ds.Len())}
	for i := 0; i < ds.Len(); i++ {
		m.vecs[i] = ds.At(i).Clone()
	}
	return m
}

func (m *mirror) insert(id int, v bitvec.Vector) { m.vecs[id] = v.Clone() }

func (m *mirror) delete(id int) bool {
	if _, ok := m.vecs[id]; !ok {
		return false
	}
	delete(m.vecs, id)
	return true
}

func (m *mirror) search(q bitvec.Vector, k int) []knn.Neighbor {
	all := make([]knn.Neighbor, 0, len(m.vecs))
	for id, v := range m.vecs {
		all = append(all, knn.Neighbor{ID: id, Dist: v.Hamming(q)})
	}
	knn.SortNeighbors(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// dataset returns the mirror's vectors in ascending ID order — what
// Index.Dataset must hold.
func (m *mirror) dataset() *bitvec.Dataset {
	ids := make([]int, 0, len(m.vecs))
	for id := range m.vecs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ds := bitvec.NewDataset(m.dim)
	for _, id := range ids {
		ds.Append(m.vecs[id])
	}
	return ds
}

func datasetsEqual(a, b *bitvec.Dataset) bool {
	if a.Len() != b.Len() || a.Dim() != b.Dim() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !a.At(i).Equal(b.At(i)) {
			return false
		}
	}
	return true
}

func neighborsEqual(a, b []knn.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLiveChurnProperty interleaves Insert/Delete/Search against the
// brute-force mirror and asserts byte-identical top-k — including
// tie-stability around tombstoned IDs — across dimensionalities, with a
// compaction forced mid-stream and the background threshold compactor
// armed low enough to fire on its own — over both kinds of base. Before
// each forced compaction the merged Dataset (survivors copied run by run)
// must hold the mirror's vectors in ID order.
func TestLiveChurnProperty(t *testing.T) {
	for _, dim := range []int{32, 128} {
		dim := dim
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			for kind, compile := range baseKinds(t) {
				compile := compile
				t.Run(kind, func(t *testing.T) { churnProperty(t, dim, compile) })
			}
		})
	}
}

func churnProperty(t *testing.T, dim int, compile CompileFunc) {
	rng := stats.NewRNG(uint64(1000 + dim))
	const n0, ops = 200, 600
	ds := bitvec.RandomDataset(rng, n0, dim)
	idx, err := New(ds, compile, Options{CompactThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	m := newMirror(ds)
	ctx := context.Background()

	liveIDs := make([]int, 0, n0+ops)
	for i := 0; i < n0; i++ {
		liveIDs = append(liveIDs, i)
	}
	checks := 0
	for op := 0; op < ops; op++ {
		switch c := rng.Intn(10); {
		case c < 4: // insert
			v := bitvec.Random(rng, dim)
			id, err := idx.Insert(ctx, v)
			if err != nil {
				t.Fatalf("op %d: insert: %v", op, err)
			}
			m.insert(id, v)
			liveIDs = append(liveIDs, id)
		case c < 6 && len(liveIDs) > 0: // delete
			i := rng.Intn(len(liveIDs))
			id := liveIDs[i]
			liveIDs[i] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
			if err := idx.Delete(ctx, id); err != nil {
				t.Fatalf("op %d: delete %d: %v", op, id, err)
			}
			if !m.delete(id) {
				t.Fatalf("op %d: mirror missing id %d", op, id)
			}
			// A second delete of the same ID must report not-found.
			if err := idx.Delete(ctx, id); !errors.Is(err, aperr.ErrNotFound) {
				t.Fatalf("op %d: double delete %d: got %v, want ErrNotFound", op, id, err)
			}
		default: // search
			q := bitvec.Random(rng, dim)
			k := 1 + rng.Intn(10)
			got, err := idx.Search(ctx, []bitvec.Vector{q}, k)
			if err != nil {
				t.Fatalf("op %d: search: %v", op, err)
			}
			want := m.search(q, k)
			if !neighborsEqual(got[0], want) {
				t.Fatalf("op %d (k=%d, %d live): got %v, want %v",
					op, k, idx.Len(), got[0], want)
			}
			checks++
		}
		if op == ops/2 {
			if !datasetsEqual(idx.Dataset(), m.dataset()) {
				t.Fatalf("op %d: Dataset is not the mirror's live set", op)
			}
			// Mid-stream compaction; results must stay identical.
			if err := idx.Compact(ctx); err != nil {
				t.Fatalf("op %d: compact: %v", op, err)
			}
		}
		if idx.Len() != len(m.vecs) {
			t.Fatalf("op %d: Len=%d, mirror=%d", op, idx.Len(), len(m.vecs))
		}
	}
	if checks == 0 {
		t.Fatal("property stream never searched")
	}
	if !datasetsEqual(idx.Dataset(), m.dataset()) {
		t.Fatal("Dataset is not the mirror's live set")
	}
	// Settle: a final compaction folds every tombstone; the result
	// set must still match the mirror exactly.
	if err := idx.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	q := bitvec.Random(rng, dim)
	got, err := idx.Search(ctx, []bitvec.Vector{q}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.search(q, 10); !neighborsEqual(got[0], want) {
		t.Fatalf("post-compact: got %v, want %v", got[0], want)
	}
	st := idx.Stats()
	if st.Compactions < 2 {
		t.Fatalf("expected at least the 2 forced compactions, got %d", st.Compactions)
	}
	if st.DeltaSize != 0 || st.Tombstones != 0 {
		t.Fatalf("post-compact churn not folded: %+v", st)
	}
}

// TestLiveOldestFirstIDMapMemBudget: after oldest-first churn and a
// compaction, the base holds its survivors' packed words exactly (len ==
// cap) and maps them to global IDs with one run, however many there are.
func TestLiveOldestFirstIDMapMemBudget(t *testing.T) {
	const dim, n0, churn = 64, 4096, 1000
	rng := stats.NewRNG(91)
	idx, err := New(bitvec.RandomDataset(rng, n0, dim), compileExcluding, Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	ctx := context.Background()
	for id := 0; id < churn; id++ {
		if _, err := idx.Insert(ctx, bitvec.Random(rng, dim)); err != nil {
			t.Fatal(err)
		}
		if err := idx.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	b := idx.cur.Load().base
	if ids := b.ids; ids.Runs() != 1 || ids.Len() != n0 || ids.ID(0) != churn {
		t.Fatalf("base id map: %d runs over %d vectors; want 1 run over %d from id %d", ids.Runs(), ids.Len(), n0, churn)
	}
	if w := b.ds.Words(); len(w) != cap(w) {
		t.Fatalf("base slab: len %d, cap %d", len(w), cap(w))
	}
}

// TestLiveTombstoneTieStability pins the tie-break contract the merge must
// preserve: equidistant vectors order by ID, and tombstoning one of a tie
// group promotes exactly the next ID, before and after compaction.
func TestLiveTombstoneTieStability(t *testing.T) {
	const dim = 32
	base := bitvec.New(dim) // all zeros
	ds := bitvec.NewDataset(dim)
	for i := 0; i < 4; i++ {
		ds.Append(base.Clone()) // ids 0..3, all identical
	}
	idx, err := New(ds, compileCPU(t), Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	ctx := context.Background()

	// Two more identical vectors through the delta path: ids 4, 5.
	for i := 0; i < 2; i++ {
		if _, err := idx.Insert(ctx, base.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	q := base.Clone()
	want := []knn.Neighbor{{ID: 0, Dist: 0}, {ID: 1, Dist: 0}, {ID: 2, Dist: 0}}
	got, err := idx.Search(ctx, []bitvec.Vector{q}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !neighborsEqual(got[0], want) {
		t.Fatalf("tie order: got %v, want %v", got[0], want)
	}
	// Tombstone the middle of the tie group: ID 1 must vanish, ID 3 must
	// slide in — on this base, the over-fetch by one is what makes it exact.
	if err := idx.Delete(ctx, 1); err != nil {
		t.Fatal(err)
	}
	want = []knn.Neighbor{{ID: 0, Dist: 0}, {ID: 2, Dist: 0}, {ID: 3, Dist: 0}}
	got, err = idx.Search(ctx, []bitvec.Vector{q}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !neighborsEqual(got[0], want) {
		t.Fatalf("tie order after tombstone: got %v, want %v", got[0], want)
	}
	// Compaction must not renumber: global IDs survive the rebuild.
	if err := idx.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	got, err = idx.Search(ctx, []bitvec.Vector{q}, 6)
	if err != nil {
		t.Fatal(err)
	}
	want = []knn.Neighbor{{ID: 0, Dist: 0}, {ID: 2, Dist: 0}, {ID: 3, Dist: 0}, {ID: 4, Dist: 0}, {ID: 5, Dist: 0}}
	if !neighborsEqual(got[0], want) {
		t.Fatalf("ids after compaction: got %v, want %v", got[0], want)
	}
}

// TestLiveConcurrentChurn hammers Search, Insert, Delete and Compact from
// parallel goroutines — the -race workout for the RCU swap and the
// snapshot stability of the delta segment.
func TestLiveConcurrentChurn(t *testing.T) {
	const dim, n0 = 64, 256
	rng := stats.NewRNG(7)
	ds := bitvec.RandomDataset(rng, n0, dim)
	idx, err := New(ds, compileCPU(t), Options{CompactThreshold: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	const writers, searchers, each = 4, 4, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := stats.NewRNG(uint64(100 + w))
			for i := 0; i < each; i++ {
				id, err := idx.Insert(ctx, bitvec.Random(r, dim))
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%3 == 0 {
					if err := idx.Delete(ctx, id); err != nil {
						t.Errorf("delete %d: %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := stats.NewRNG(uint64(200 + s))
			for i := 0; i < each; i++ {
				res, err := idx.Search(ctx, []bitvec.Vector{bitvec.Random(r, dim)}, 5)
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				// The snapshot can never shrink below the seed minus its
				// deletes; 5 live vectors always exist here.
				if len(res[0]) != 5 {
					t.Errorf("search returned %d results, want 5", len(res[0]))
					return
				}
				prev := knn.Neighbor{ID: -1, Dist: -1}
				for _, nb := range res[0] {
					if !prev.Less(nb) {
						t.Errorf("unsorted result %v after %v", nb, prev)
						return
					}
					prev = nb
				}
			}
		}(s)
	}
	wg.Wait()
	if err := idx.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	wantLive := n0 + writers*each - writers*((each+2)/3)
	if got := idx.Len(); got != wantLive {
		t.Fatalf("live count %d, want %d (stats %+v)", got, wantLive, st)
	}
	if st.Inserts != writers*each {
		t.Fatalf("inserts %d, want %d", st.Inserts, writers*each)
	}
}

// TestLiveErrors covers the sentinel paths: bad k, dim mismatch, unknown
// and double deletes, empty seed.
func TestLiveErrors(t *testing.T) {
	rng := stats.NewRNG(3)
	ds := bitvec.RandomDataset(rng, 16, 32)
	idx, err := New(ds, compileCPU(t), Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	ctx := context.Background()
	if _, err := idx.Search(ctx, []bitvec.Vector{bitvec.Random(rng, 32)}, 0); !errors.Is(err, aperr.ErrBadK) {
		t.Errorf("k=0: got %v", err)
	}
	if _, err := idx.Search(ctx, []bitvec.Vector{bitvec.Random(rng, 64)}, 3); !errors.Is(err, aperr.ErrDimMismatch) {
		t.Errorf("dim mismatch search: got %v", err)
	}
	if _, err := idx.Insert(ctx, bitvec.Random(rng, 64)); !errors.Is(err, aperr.ErrDimMismatch) {
		t.Errorf("dim mismatch insert: got %v", err)
	}
	if err := idx.Delete(ctx, 99); !errors.Is(err, aperr.ErrNotFound) {
		t.Errorf("delete unknown: got %v", err)
	}
	if err := idx.Delete(ctx, -1); !errors.Is(err, aperr.ErrNotFound) {
		t.Errorf("delete negative: got %v", err)
	}
	if _, err := New(bitvec.NewDataset(8), compileCPU(t), Options{}); !errors.Is(err, aperr.ErrEmptyDataset) {
		t.Errorf("empty seed: got %v", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := idx.Insert(canceled, bitvec.Random(rng, 32)); !errors.Is(err, aperr.ErrCanceled) {
		t.Errorf("canceled insert: got %v", err)
	}
}

// TestLiveDeleteEverything drives the index down to zero vectors and back:
// searches against an all-deleted index return empty result sets, a
// compaction of an empty survivor set parks the base at nil, and inserts
// repopulate it.
func TestLiveDeleteEverything(t *testing.T) {
	rng := stats.NewRNG(5)
	const dim = 32
	ds := bitvec.RandomDataset(rng, 8, dim)
	idx, err := New(ds, compileCPU(t), Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	ctx := context.Background()
	for id := 0; id < 8; id++ {
		if err := idx.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	res, err := idx.Search(ctx, []bitvec.Vector{bitvec.Random(rng, dim)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 0 {
		t.Fatalf("all-deleted search returned %v", res[0])
	}
	if err := idx.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 0 {
		t.Fatalf("Len=%d after deleting everything", idx.Len())
	}
	res, err = idx.Search(ctx, []bitvec.Vector{bitvec.Random(rng, dim)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 0 {
		t.Fatalf("post-compact empty search returned %v", res[0])
	}
	// Repopulate through the delta path and compact back into a base.
	v := bitvec.Random(rng, dim)
	id, err := idx.Insert(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	if id != 8 {
		t.Fatalf("id after wipe = %d, want 8 (never reused)", id)
	}
	if err := idx.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	res, err = idx.Search(ctx, []bitvec.Vector{v}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 1 || res[0][0].ID != 8 || res[0][0].Dist != 0 {
		t.Fatalf("reborn index search = %v", res[0])
	}
}

// TestLiveBackgroundCompaction proves the threshold trigger fires without
// any explicit Compact call.
func TestLiveBackgroundCompaction(t *testing.T) {
	rng := stats.NewRNG(9)
	const dim = 32
	ds := bitvec.RandomDataset(rng, 32, dim)
	idx, err := New(ds, compileCPU(t), Options{CompactThreshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		if _, err := idx.Insert(ctx, bitvec.Random(rng, dim)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if idx.Stats().Compactions > 0 {
			if got := idx.Stats().BaseSize; got != 48 {
				t.Fatalf("base size after background compaction = %d, want 48", got)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background compaction never fired")
}

// TestLiveStaleTimerCompaction proves the max-staleness interval folds
// churn that never reaches the threshold.
func TestLiveStaleTimerCompaction(t *testing.T) {
	rng := stats.NewRNG(11)
	const dim = 32
	ds := bitvec.RandomDataset(rng, 32, dim)
	idx, err := New(ds, compileCPU(t), Options{
		CompactThreshold: 1 << 20, // unreachable
		CompactInterval:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if _, err := idx.Insert(context.Background(), bitvec.Random(rng, dim)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if idx.Stats().Compactions > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("staleness timer never compacted")
}

// TestLiveKernelSearchDuringCompaction pins the blocked kernel's delta scan
// (chunked ScanBlock over snapshot slabs, tombstones refused at the heap)
// and the base scan's exclusion set against the RCU
// view swap: searchers run flat out while a compactor loop folds the delta
// into fresh base compilations and a writer keeps refilling it. Every
// returned neighbor is re-verified by recomputing its Hamming distance from
// the recorded vector — IDs are never reused, so a torn read of a moved or
// recycled slab would surface as a distance mismatch under -race.
func TestLiveKernelSearchDuringCompaction(t *testing.T) {
	for kind, compile := range baseKinds(t) {
		compile := compile
		t.Run(kind, func(t *testing.T) { kernelSearchDuringCompaction(t, compile) })
	}
}

func kernelSearchDuringCompaction(t *testing.T, compile CompileFunc) {
	const dim, n0 = 128, 512
	rng := stats.NewRNG(21)
	ds := bitvec.RandomDataset(rng, n0, dim)
	idx, err := New(ds, compile, Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	ctx := context.Background()

	// vecs records every vector the index has ever held, by global ID.
	var vecs sync.Map
	for i := 0; i < n0; i++ {
		vecs.Store(i, ds.At(i).Clone())
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writer: keep the delta segment non-empty so each compaction has work
	// and searches always cross the base/delta merge.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := stats.NewRNG(1000)
		for i := 0; !stop.Load(); i++ {
			v := bitvec.Random(r, dim)
			id, err := idx.Insert(ctx, v)
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			vecs.Store(id, v)
			if i%4 == 0 {
				if err := idx.Delete(ctx, id); err != nil {
					t.Errorf("delete %d: %v", id, err)
					return
				}
			}
		}
	}()

	// Compactor: fold the churn repeatedly so view swaps overlap searches.
	// Compact is a no-op on a clean index, so guarantee each round has at
	// least one delta entry to fold.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := stats.NewRNG(3000)
		for i := 0; i < 20; i++ {
			v := bitvec.Random(r, dim)
			id, err := idx.Insert(ctx, v)
			if err != nil {
				t.Errorf("compactor insert: %v", err)
				return
			}
			vecs.Store(id, v)
			if err := idx.Compact(ctx); err != nil {
				t.Errorf("compact %d: %v", i, err)
				return
			}
		}
		stop.Store(true)
	}()

	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := stats.NewRNG(uint64(2000 + s))
			for !stop.Load() {
				q := bitvec.Random(r, dim)
				res, err := idx.Search(ctx, []bitvec.Vector{q}, 10)
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				prev := knn.Neighbor{ID: -1, Dist: -1}
				for _, nb := range res[0] {
					if !prev.Less(nb) {
						t.Errorf("unsorted result %v after %v", nb, prev)
						return
					}
					prev = nb
					v, ok := vecs.Load(nb.ID)
					for retry := 0; !ok && retry < 100; retry++ {
						// An insert becomes searchable inside idx.Insert, a
						// beat before the inserter goroutine records the
						// returned ID in vecs — give the Store a moment
						// before calling the ID phantom.
						time.Sleep(100 * time.Microsecond)
						v, ok = vecs.Load(nb.ID)
					}
					if !ok {
						t.Errorf("result ID %d was never inserted", nb.ID)
						return
					}
					if want := v.(bitvec.Vector).Hamming(q); nb.Dist != want {
						t.Errorf("ID %d dist %d, want %d (torn read?)", nb.ID, nb.Dist, want)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	if idx.Stats().Compactions < 20 {
		t.Fatalf("compactions %d, want >= 20", idx.Stats().Compactions)
	}
}

// TestLiveHugeK is the regression for k + tombstones overflowing: a k at or
// past the live count — math.MaxInt included, a legal request — returns
// every live vector, at zero, one and many base-resident tombstones, on the
// excluding path (which no longer adds) and the over-fetch path (which
// clamps k to the base size first).
func TestLiveHugeK(t *testing.T) {
	const dim, n0 = 64, 300
	for kind, compile := range baseKinds(t) {
		compile := compile
		t.Run(kind, func(t *testing.T) {
			rng := stats.NewRNG(77)
			ds := bitvec.RandomDataset(rng, n0, dim)
			idx, err := New(ds, compile, Options{CompactThreshold: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			ctx := context.Background()
			m := newMirror(ds)
			for i := 0; i < 5; i++ { // a delta segment beside the base
				v := bitvec.Random(rng, dim)
				id, err := idx.Insert(ctx, v)
				if err != nil {
					t.Fatal(err)
				}
				m.insert(id, v)
			}
			deleted := 0
			for _, tombstones := range []int{0, 1, 120} {
				for ; deleted < tombstones; deleted++ {
					id := deleted * 2 // base-resident, oldest first
					if err := idx.Delete(ctx, id); err != nil {
						t.Fatal(err)
					}
					m.delete(id)
				}
				n := idx.Len()
				q := bitvec.Random(rng, dim)
				for _, k := range []int{n, n + 5, math.MaxInt} {
					got, err := idx.Search(ctx, []bitvec.Vector{q}, k)
					if err != nil {
						t.Fatalf("%d tombstones, k=%d: %v", tombstones, k, err)
					}
					if want := m.search(q, k); len(got[0]) != n || !neighborsEqual(got[0], want) {
						t.Fatalf("%d tombstones, k=%d: got %d neighbors, want all %d live in mirror order",
							tombstones, k, len(got[0]), n)
					}
				}
			}
		})
	}
}

// TestLiveSeededDeltaMatchesMirror holds Search to the brute-force mirror
// where the base's heap fill steps over tombstone runs and the delta scan is
// seeded with the base's k-th neighbor: a run of base tombstones at the
// front, in the middle, at the end, and over the whole base (no seed); half
// tie-heavy data; delta entries that tie the seed's distance and must lose
// on ID, and ones just inside it that must enter; k from 1 to past the live
// count (no seed either); queries one at a time and batched (the base's
// eight- and four-wide tiles); a delta of two chunks and one past parallelDeltaVecs —
// over both kinds of base, on SIMD strides and on one the portable loop
// takes (-tags purego takes it everywhere).
func TestLiveSeededDeltaMatchesMirror(t *testing.T) {
	const n0, run = seededBaseLen, 300
	layouts := []struct {
		name   string
		lo, hi int // base IDs tombstoned
	}{{"front", 0, run}, {"middle", (n0 - run) / 2, (n0 + run) / 2}, {"end", n0 - run, n0}, {"all", 0, n0}}
	type shape struct{ dim, deltaN int }
	shapes := []shape{{64, 300}, {128, 300}, {192, 300}, {64, parallelDeltaVecs + 300}}
	for _, sh := range shapes {
		for kind, compile := range baseKinds(t) {
			for _, l := range layouts {
				if sh.deltaN > parallelDeltaVecs && l.name != "front" {
					continue
				}
				name := fmt.Sprintf("dim%d/delta%d/%s/%s", sh.dim, sh.deltaN, kind, l.name)
				t.Run(name, func(t *testing.T) { seededDeltaProperty(t, sh.dim, sh.deltaN, compile, l.lo, l.hi) })
			}
		}
	}
}

const seededBaseLen = 700

func seededDeltaProperty(t *testing.T, dim, deltaN int, compile CompileFunc, deadLo, deadHi int) {
	const n0 = seededBaseLen
	rng := stats.NewRNG(uint64(dim*1009 + deadLo))
	tie := workload.TieHeavy(rng, n0, dim, 64)
	ds := bitvec.NewDataset(dim)
	for i := 0; i < n0; i++ {
		if rng.Intn(2) == 0 {
			ds.Append(tie.At(i))
		} else {
			ds.Append(bitvec.Random(rng, dim))
		}
	}
	idx, err := New(ds, compile, Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	m := newMirror(ds)
	ctx := context.Background()
	insert := func(v bitvec.Vector) {
		t.Helper()
		id, err := idx.Insert(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		m.insert(id, v)
	}
	for id := deadLo; id < deadHi; id++ {
		if err := idx.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
		m.delete(id)
	}
	queries := []bitvec.Vector{
		bitvec.Random(rng, dim), bitvec.Random(rng, dim),
		tie.At(0).Clone(), ds.At(deadLo).Clone(), ds.At(n0 - 1).Clone(),
	}
	for len(queries) < 13 { // a batch of 8 + 4 + 1: both tile widths and the single-query loop
		queries = append(queries, bitvec.Random(rng, dim))
	}
	search := func(what string, qs []bitvec.Vector, ks ...int) {
		t.Helper()
		for _, k := range ks {
			batch, err := idx.Search(ctx, qs, k)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range qs {
				one, err := idx.Search(ctx, []bitvec.Vector{q}, k)
				if err != nil {
					t.Fatal(err)
				}
				want := m.search(q, k)
				if !neighborsEqual(batch[qi], want) || !neighborsEqual(one[0], want) {
					t.Fatalf("%s: k=%d query %d (%d live): got %v batched, %v alone\nwant %v",
						what, k, qi, idx.Len(), batch[qi], one[0], want)
				}
			}
		}
	}
	// Probes first, into a delta that holds nothing else: for each query and
	// k (largest first, so a probe never crowds out a later one), a copy of
	// the base's k-th, which ties the seed's distance with a higher ID and
	// must lose to it, and a vector a bit closer to the query, which must
	// enter — a seed any tighter than the k-th would keep it out.
	for _, q := range queries {
		for _, k := range []int{33, 8, 2, 1} {
			var base []knn.Neighbor
			for _, nb := range m.search(q, len(m.vecs)) {
				if nb.ID < n0 {
					base = append(base, nb)
				}
			}
			if len(base) < k {
				continue
			}
			kth := base[k-1]
			insert(m.vecs[kth.ID])
			if kth.Dist > 0 {
				closer := q.Clone()
				for b := 0; b < kth.Dist-1; b++ {
					closer.Flip(b)
				}
				insert(closer)
			}
			search(fmt.Sprintf("probes at the base's %d-th", k), []bitvec.Vector{q}, k)
		}
	}
	for i := 0; i < deltaN; i++ {
		switch rng.Intn(3) {
		case 0:
			insert(bitvec.Random(rng, dim))
		case 1:
			insert(tie.At(rng.Intn(n0)))
		default:
			insert(ds.At(rng.Intn(n0)))
		}
	}
	live := idx.Len()
	search("delta beside the base", queries, 1, 8, 33, live-1, live, live+3)
}

// TestLiveDeleteIsCopyOnWrite: a view loaded before a Delete still returns
// the deleted vector, from the base and from the delta — a search that took
// its snapshot first is not torn by the tombstone. The sets are copied,
// never written in place.
func TestLiveDeleteIsCopyOnWrite(t *testing.T) {
	const dim, n0 = 64, 100
	for kind, compile := range baseKinds(t) {
		compile := compile
		t.Run(kind, func(t *testing.T) {
			rng := stats.NewRNG(78)
			ds := bitvec.RandomDataset(rng, n0, dim)
			idx, err := New(ds, compile, Options{CompactThreshold: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			ctx := context.Background()
			inDelta := bitvec.Random(rng, dim)
			deltaID, err := idx.Insert(ctx, inDelta)
			if err != nil {
				t.Fatal(err)
			}
			// One tombstone in each set first, so the Deletes below copy a
			// set that exists instead of creating one.
			other, err := idx.Insert(ctx, bitvec.Random(rng, dim))
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []int{3, other} {
				if err := idx.Delete(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
			const baseID = 40
			before := idx.cur.Load()
			for _, id := range []int{baseID, deltaID} {
				if err := idx.Delete(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
			after := idx.cur.Load()
			nearest := func(v *view, q bitvec.Vector) int {
				t.Helper()
				res, err := v.searchBase(ctx, []bitvec.Vector{q}, 1)
				if err != nil {
					t.Fatal(err)
				}
				return v.searchDelta(q, 1, res[0])[0].ID
			}
			for id, q := range map[int]bitvec.Vector{baseID: ds.At(baseID), deltaID: inDelta} {
				if got := nearest(before, q); got != id {
					t.Errorf("view from before Delete(%d) finds %d nearest its vector, want %d", id, got, id)
				}
				if got := nearest(after, q); got == id {
					t.Errorf("view from after Delete(%d) still returns it", id)
				}
			}
		})
	}
}
