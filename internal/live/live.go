package live

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aperr"
	"repro/internal/apstats"
	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/wal"
)

// deltaScanHist is the wall-clock cost of the exact delta-segment scans a
// mixed search pays on top of the compiled base — the latency churn adds
// between compactions.
var deltaScanHist = obs.NewHistogram("apknn_live_delta_scan_seconds",
	"Exact delta-segment scan latency per mixed live search")

// CompileFunc builds a fresh base index over a dataset — apknn passes the
// backend's compile function, so the compactor recompiles through the same
// path Open uses. A base must be able to leave the tombstoned vectors out
// itself. Of it the engine uses SearchExcluding (the shared (Dist, ID)
// tie-break), ModeledTime and Stats().CandidatesScanned (both retired into
// the index's own accumulators when a compaction swaps the generation out)
// and Stats().Partitions (what the compaction cost model charges
// reconfigurations for).
type CompileFunc func(ds *bitvec.Dataset) (apstats.ExcludingSearcher, error)

// Options tunes an Index. The zero value compacts at DefaultCompactThreshold
// with no staleness timer and charges no reconfiguration time.
type Options struct {
	// CompactThreshold triggers a background compaction when the delta
	// segment plus tombstone set reach this many entries (default
	// DefaultCompactThreshold; negative disables the threshold trigger).
	CompactThreshold int
	// CompactInterval is the max-staleness timer: a background compaction
	// folds any pending churn at least this often (0 disables the timer).
	CompactInterval time.Duration
	// ReconfigCost models the time a compaction charges for loading the
	// freshly compiled base onto the device, given its partition count —
	// the symbol-replacement sweep of the paper's model. Nil charges zero.
	ReconfigCost func(partitions int) time.Duration
	// ScanCost models the host time of one delta scan of n entries for q
	// queries of dimensionality dim — apknn passes the calibrated Xeon E5
	// model, the same cost the CPU backend charges per candidate pair. Nil
	// charges zero.
	ScanCost func(n, q, dim int) time.Duration
}

// DefaultCompactThreshold is the churn volume (delta entries + tombstones)
// that triggers a background compaction when Options doesn't say otherwise.
const DefaultCompactThreshold = 1024

// baseGen is one compiled generation of the base index: the backend index,
// the dataset it was compiled from, and the internal→global ID map.
type baseGen struct {
	searcher apstats.ExcludingSearcher
	ds       *bitvec.Dataset
	// ids maps the backend's internal IDs (dataset positions) to global
	// IDs, strictly ascending, so a (Dist, internalID)-sorted result list is
	// (Dist, globalID)-sorted after remapping. It is one run for the seed
	// generation and for the contiguous range oldest-first deletes leave; a
	// compaction adds one run per gap its deletes cut into the ID range.
	ids bitvec.IDMap
}

func (b *baseGen) size() int { return b.ds.Len() }

// position returns the internal ID of the base-resident vector a global ID
// names, false when the base holds none. A nil base holds none.
func (b *baseGen) position(id int) (int, bool) {
	if b == nil {
		return 0, false
	}
	return b.ids.Position(id)
}

// view is one immutable snapshot of the whole mutable index. Readers load
// it from an atomic pointer and never block on writers; writers build a new
// view under the writer lock and publish it atomically (RCU).
type view struct {
	base  *baseGen // nil when every vector has been deleted
	delta delta
	tombs
	// nextID is the next global ID an Insert will assign. IDs are never
	// reused, so a delete followed by any number of compactions can never
	// resurrect an ID.
	nextID int
}

// tombs is the tombstone set — vectors deleted but not yet compacted away —
// as the two sets the scans exclude by: baseDead over the base's internal
// IDs (dataset positions), deltaDead over delta entry indexes.
type tombs struct {
	baseDead, deltaDead deadSet
}

// count returns the number of tombstones.
func (t *tombs) count() int { return t.baseDead.n + t.deltaDead.n }

// deadSet is a bitset of positions with its member count. The bits are
// immutable once a view holding them is published: Delete publishes a copy
// (with: n/8 bytes) and a reader's view keeps the old one; add is for a set
// still being built, in recovery and at the compaction swap. An empty set's
// bits are nil. Both take the size of the segment the positions index, so
// that the bits cover it whole — which the kernel demands of baseDead.
type deadSet struct {
	bits bitvec.Bitset
	n    int
}

func (d deadSet) with(pos, size int) deadSet { return deadSet{d.bits.With(pos, size), d.n + 1} }

func (d *deadSet) add(pos, size int) { d.bits, d.n = d.bits.Add(pos, size), d.n+1 }

// locate resolves a global ID against a base and a delta segment of
// deltaLen entries starting at firstID: which segment holds it and where,
// and whether it is already tombstoned. found is false for an ID in
// neither.
func (t *tombs) locate(base *baseGen, firstID, deltaLen, id int) (inBase bool, pos int, dead, found bool) {
	if pos, ok := base.position(id); ok {
		return true, pos, t.baseDead.bits.Has(pos), true
	}
	if pos := id - firstID; pos >= 0 && pos < deltaLen {
		return false, pos, t.deltaDead.bits.Has(pos), true
	}
	return false, 0, false, false
}

// baseSize returns the vector count of the compiled base, zero without one.
func (v *view) baseSize() int {
	if v.base == nil {
		return 0
	}
	return v.base.size()
}

// liveLen returns the number of live (visible, non-tombstoned) vectors.
func (v *view) liveLen() int {
	return v.baseSize() + v.delta.Len() - v.count()
}

// churn returns the pending mutation volume a compaction would fold.
func (v *view) churn() int { return v.delta.Len() + v.count() }

// Index is the mutable index: a compiled base plus delta segment and
// tombstones, recompacted in the background. Search/Insert/Delete are safe
// for concurrent use; searches never block on mutations or compactions.
type Index struct {
	compile CompileFunc
	opts    Options
	dim     int

	cur atomic.Pointer[view]

	// mu is the writer lock: Insert, Delete and the compaction swap hold
	// it; readers never do.
	mu    sync.Mutex
	store delta // canonical delta store; mutate under mu

	// wal, when non-nil, is the write-ahead log every mutation is appended
	// to before it is published; the compaction swap rotates it. Both under
	// mu. dur is the rest of the durability state (nil without a directory).
	wal *wal.Log
	dur *durState

	// compactMu serializes compactions (background and explicit).
	compactMu sync.Mutex

	// metrics is the index's metric set: the apknn_live_* series (and, on
	// a durable index, the apknn_wal_* ones) GET /metrics prints and Stats
	// is filled from. apknn adds the backend series of the index around it.
	metrics       obs.Set
	inserts       *obs.Counter
	deletes       *obs.Counter
	mixedSearches *obs.Counter
	compactions   *obs.Counter
	compactFails  *obs.Counter
	generation    atomic.Int64
	deltaScanNS   atomic.Int64
	reconfigNS    atomic.Int64
	retiredNS     atomic.Int64
	retiredPairs  atomic.Int64
	deltaPairs    atomic.Int64

	notify    chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New compiles ds as generation 0 and starts the background compactor. The
// seed dataset must be non-empty (the backends cannot compile an empty
// automaton); it is referenced, not copied — callers must not mutate it.
func New(ds *bitvec.Dataset, compile CompileFunc, opts Options) (*Index, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("live: %w", aperr.ErrEmptyDataset)
	}
	base, err := compile(ds)
	if err != nil {
		return nil, fmt.Errorf("live: compile base: %w", err)
	}
	x := newIndex(&baseGen{searcher: base, ds: ds, ids: bitvec.Identity(ds.Len())}, newDelta(ds.Dim(), ds.Len()), tombs{}, compile, opts)
	x.start()
	return x, nil
}

// newIndex assembles an Index around an already-built state — the shared
// tail of New and the durable recovery paths. Options defaults are applied
// here; start launches the background loops.
func newIndex(base *baseGen, store delta, dead tombs, compile CompileFunc, opts Options) *Index {
	if opts.CompactThreshold == 0 {
		opts.CompactThreshold = DefaultCompactThreshold
	}
	x := &Index{
		compile: compile,
		opts:    opts,
		dim:     store.Dim(),
		store:   store,
		notify:  make(chan struct{}, 1),
		closed:  make(chan struct{}),
	}
	m := &x.metrics
	x.inserts = m.Counter("apknn_live_inserts_total", "Inserts accepted by the live index")
	x.deletes = m.Counter("apknn_live_deletes_total", "Deletes accepted by the live index")
	x.compactions = m.Counter("apknn_live_compactions_total", "Compactions that swapped in a freshly compiled base")
	x.compactFails = m.Counter("apknn_live_compaction_failures_total",
		"Compactions that failed and left the previous base serving")
	x.mixedSearches = m.Counter("apknn_live_mixed_searches_total",
		"Searches answered from the base and a pending delta/tombstone overlay together")
	m.Gauge("apknn_live_delta_size", "Delta-segment entries awaiting compaction",
		func() float64 { return float64(x.cur.Load().delta.Len()) })
	m.Gauge("apknn_live_tombstones", "Tombstones awaiting compaction",
		func() float64 { return float64(x.cur.Load().count()) })
	m.Gauge("apknn_live_base_size", "Vectors in the current compiled base",
		func() float64 { return float64(x.cur.Load().baseSize()) })
	m.Gauge("apknn_live_generation", "Generation number of the current compiled base",
		func() float64 { return float64(x.generation.Load()) })
	x.cur.Store(&view{
		base:   base,
		delta:  store.snapshot(),
		tombs:  dead,
		nextID: store.nextID(),
	})
	return x
}

// start launches the background compactor; durable opens attach their WAL
// (and flush loop) before calling it.
func (x *Index) start() {
	x.wg.Add(1)
	go x.compactor()
}

// Len returns the number of live vectors currently searchable.
func (x *Index) Len() int { return x.cur.Load().liveLen() }

// NextID returns the global ID the next Insert will assign.
func (x *Index) NextID() int { return x.cur.Load().nextID }

// Insert appends v to the delta segment and returns its global ID. The
// vector is searchable the moment Insert returns; the reconfiguration that
// folds it into the compiled base is deferred to the next compaction. On a
// durable index the record reaches the write-ahead log (synced per policy)
// before the vector becomes visible, so an acknowledged insert survives a
// crash; after Close, durable inserts fail with aperr.ErrClosed.
func (x *Index) Insert(ctx context.Context, v bitvec.Vector) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, aperr.Canceled(err)
	}
	if v.Dim() != x.dim {
		return 0, fmt.Errorf("live: vector dim %d != index dim %d: %w", v.Dim(), x.dim, aperr.ErrDimMismatch)
	}
	x.mu.Lock()
	if x.wal != nil {
		sp := obs.StartSpan(ctx, "wal_append")
		if err := x.wal.Append(wal.InsertRecord(x.store.nextID(), v)); err != nil {
			sp.End()
			x.mu.Unlock()
			return 0, fmt.Errorf("live: log insert: %w", err)
		}
		sp.End()
	}
	id := x.store.firstID + x.store.Append(v)
	old := x.cur.Load()
	next := *old
	next.delta = x.store.snapshot()
	next.nextID = id + 1
	x.cur.Store(&next)
	x.mu.Unlock()
	x.inserts.Add(1)
	x.maybeNotify(&next)
	return id, nil
}

// Delete tombstones the vector with the given global ID. It returns
// aperr.ErrNotFound if the ID was never assigned or is already deleted.
// The vector stops appearing in results the moment Delete returns; its
// storage is reclaimed by the next compaction.
func (x *Index) Delete(ctx context.Context, id int) error {
	if err := ctx.Err(); err != nil {
		return aperr.Canceled(err)
	}
	x.mu.Lock()
	old := x.cur.Load()
	inBase, pos, dead, found := old.locate(old.base, old.delta.firstID, old.delta.Len(), id)
	if dead {
		x.mu.Unlock()
		return fmt.Errorf("live: id %d already deleted: %w", id, aperr.ErrNotFound)
	}
	if !found {
		x.mu.Unlock()
		return fmt.Errorf("live: id %d: %w", id, aperr.ErrNotFound)
	}
	if x.wal != nil {
		sp := obs.StartSpan(ctx, "wal_append")
		if err := x.wal.Append(wal.Record{Type: wal.RecDelete, ID: id}); err != nil {
			sp.End()
			x.mu.Unlock()
			return fmt.Errorf("live: log delete: %w", err)
		}
		sp.End()
	}
	next := *old
	if inBase {
		next.baseDead = old.baseDead.with(pos, old.base.size())
	} else {
		next.deltaDead = old.deltaDead.with(pos, old.delta.Len())
	}
	x.cur.Store(&next)
	x.mu.Unlock()
	x.deletes.Add(1)
	x.maybeNotify(&next)
	return nil
}

// maybeNotify wakes the background compactor when the pending churn has
// reached the threshold.
func (x *Index) maybeNotify(v *view) {
	if x.opts.CompactThreshold < 0 || v.churn() < x.opts.CompactThreshold {
		return
	}
	select {
	case x.notify <- struct{}{}:
	default:
	}
}

// Search returns the k nearest live neighbors of each query: the base
// index's k nearest with the base-resident tombstones left out, remapped to
// global IDs, merged with an exact scan of the delta segment's live
// entries, through the same (Dist, ID) tie-break every engine in this
// repository uses. The snapshot is taken once — mutations and compactions
// that land mid-search do not tear the result.
func (x *Index) Search(ctx context.Context, queries []bitvec.Vector, k int) ([][]knn.Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("live: got k=%d: %w", k, aperr.ErrBadK)
	}
	for i, q := range queries {
		if q.Dim() != x.dim {
			return nil, fmt.Errorf("live: query %d dim %d != index dim %d: %w", i, q.Dim(), x.dim, aperr.ErrDimMismatch)
		}
	}
	v := x.cur.Load()
	var results [][]knn.Neighbor
	if v.base != nil {
		bsp := obs.StartSpan(ctx, "base_search")
		var err error
		results, err = v.searchBase(obs.WithSpan(ctx, bsp), queries, k)
		bsp.End()
		if err != nil {
			return nil, err
		}
	} else {
		results = make([][]knn.Neighbor, len(queries))
	}
	if v.delta.Len() > 0 {
		scanStart := time.Now()
		for qi, q := range queries {
			if err := ctx.Err(); err != nil {
				return nil, aperr.Canceled(err)
			}
			results[qi] = v.searchDelta(q, k, results[qi])
		}
		obs.CurrentSpan(ctx).ObserveChild("delta_scan", time.Since(scanStart))
		deltaScanHist.Record(time.Since(scanStart))
		if x.opts.ScanCost != nil {
			x.deltaScanNS.Add(int64(x.opts.ScanCost(v.delta.Len(), len(queries), x.dim)))
		}
		x.deltaPairs.Add(int64(v.delta.Len()) * int64(len(queries)))
	}
	if v.base == nil {
		// All-deleted base: results are delta-only; normalize nils so every
		// query still gets a (possibly empty) list.
		for qi := range results {
			if results[qi] == nil {
				results[qi] = []knn.Neighbor{}
			}
		}
	}
	if v.churn() > 0 {
		x.mixedSearches.Add(1)
	}
	return results, nil
}

// searchBase returns each query's k nearest live base vectors under global
// IDs. The base is handed the base-resident tombstones and leaves them out
// itself (apstats.ExcludingSearcher), so its reply is the answer.
func (v *view) searchBase(ctx context.Context, queries []bitvec.Vector, k int) ([][]knn.Neighbor, error) {
	b := v.base
	res, err := b.searcher.SearchExcluding(ctx, queries, k, v.baseDead.bits)
	if err != nil || b.ids.IsIdentity() {
		return res, err
	}
	for _, ns := range res {
		for i := range ns {
			ns[i].ID = b.ids.ID(ns[i].ID)
		}
	}
	return res, nil
}

// searchDelta returns base — one query's k nearest live base vectors,
// (Dist, ID)-sorted under global IDs — with the delta entries that belong
// among them merged in. The delta is scanned through the same blocked
// XOR+POPCNT kernel the CPU backend runs: its slab is one contiguous block
// streamed into a bounded top-k heap (knn.ScanBlock) under entry indexes,
// the heap refusing the indexes in deltaDead exactly as the base scan's
// heaps refuse baseDead. When base holds k neighbors its k-th seeds the
// heap, in entry-index space (where its ID is negative, since base IDs
// precede delta ones), so the SIMD loop flags only the entries that beat
// it, and the few that do are merged into base in place. A delta that
// adds nothing leaves base as it is. The heap comes from a pool: a search
// whose delta adds nothing allocates nothing here.
func (v *view) searchDelta(q bitvec.Vector, k int, base []knn.Neighbor) []knn.Neighbor {
	t := heapPool.Get().(*knn.TopK)
	t.Reset(k, v.deltaDead.bits)
	if len(base) == k {
		worst := base[k-1]
		t.Seed(knn.Neighbor{ID: worst.ID - v.delta.firstID, Dist: worst.Dist})
	}
	knn.ScanBlock(t, v.delta.Words(), v.delta.WordsPerVector(), q.Words(), 0, v.delta.Len())
	hits := t.Sorted()
	for i := range hits {
		hits[i].ID += v.delta.firstID
	}
	switch {
	case len(hits) == 0:
	case len(base) == k:
		mergeInPlace(base, hits)
	default:
		base = knn.MergeTopK(base, hits, k)
	}
	if len(hits) <= maxPooledHits {
		t.Exclude(nil) // the pool must not keep a view's tombstones alive
		heapPool.Put(t)
	}
	return base
}

// heapPool keeps the delta scans' heaps, and maxPooledHits bounds the
// retained list one may carry back: a huge-k search over a large delta must
// not stay pinned behind the pool.
var heapPool = sync.Pool{New: func() any { return new(knn.TopK) }}

const maxPooledHits = 4 << 10

// mergeInPlace merges hits into base, both (Dist, ID)-sorted, keeping the
// len(base) best in base's own storage: it counts how many of each survive,
// then fills base from the back, where no unread entry is overwritten.
func mergeInPlace(base, hits []knn.Neighbor) {
	i, j := 0, 0
	for i+j < len(base) {
		if j < len(hits) && hits[j].Less(base[i]) {
			j++
		} else {
			i++
		}
	}
	for w := len(base) - 1; j > 0; w-- {
		if i > 0 && hits[j-1].Less(base[i-1]) {
			base[w] = base[i-1]
			i--
		} else {
			base[w] = hits[j-1]
			j--
		}
	}
}

// Compact synchronously folds the current delta segment and tombstone set
// into a freshly compiled base and swaps it in. Searches keep running
// against the old view during the compile and see the new one atomically.
// Mutations that land while the compile is running survive into the new
// view's delta/tombstones. A no-churn Compact is a no-op. A failure leaves
// the old view serving and counts in Stats().CompactionFailures.
func (x *Index) Compact(ctx context.Context) (err error) {
	x.compactMu.Lock()
	defer x.compactMu.Unlock()
	if err := ctx.Err(); err != nil {
		return aperr.Canceled(err)
	}
	defer func() {
		if err != nil {
			x.compactFails.Add(1)
		}
	}()
	// A closed index or a poisoned log would refuse the rotation below:
	// refuse now, before compiling the survivors and writing a snapshot no
	// log will follow. The check under the writer lock below still catches
	// a Close that lands while the compile runs.
	if x.dur != nil {
		select {
		case <-x.closed:
			err := fmt.Errorf("live: compact: %w", aperr.ErrClosed)
			return err
		default:
		}
		x.mu.Lock()
		lg := x.wal
		x.mu.Unlock()
		if err := lg.Err(); err != nil {
			err = fmt.Errorf("live: compact rotate: %w", err)
			return err
		}
	}
	snap := x.cur.Load()
	if snap.churn() == 0 {
		return nil
	}
	survivors, ids := snap.survivors()
	var newBase *baseGen
	var reconfig time.Duration
	if survivors.Len() > 0 {
		searcher, err := x.compile(survivors)
		if err != nil {
			err = fmt.Errorf("live: compact compile: %w", err)
			return err
		}
		newBase = &baseGen{searcher: searcher, ds: survivors, ids: ids}
		if x.opts.ReconfigCost != nil {
			reconfig = x.opts.ReconfigCost(searcher.Stats().Partitions)
		}
	}
	// Durable half one: persist the survivor set as the next generation's
	// snapshot before the swap. A crash from here until the log rotation
	// below leaves this snapshot an orphan the recovery rule ignores — the
	// previous pair still holds every acknowledged record.
	newGen := x.generation.Load() + 1
	if x.dur != nil {
		m := &bitvec.Manifest{Generation: newGen, NextID: snap.nextID, IDs: ids}
		if err := writeSnapshot(x.dur.fs, filepath.Join(x.dur.dir, snapName(newGen)), survivors, m); err != nil {
			err = fmt.Errorf("live: compact snapshot: %w", err)
			return err
		}
	}
	// Swap: everything that mutated while the compile ran — inserts past
	// the snapshot's delta length, tombstones not in the snapshot's set —
	// carries over into the new view.
	x.mu.Lock()
	cur := x.cur.Load()
	fresh := newDelta(x.dim, snap.nextID)
	fresh.AppendWords(cur.delta.Words()[snap.delta.Len()*cur.delta.WordsPerVector():])
	// A carried tombstone names a vector the snapshot still held live, which
	// is now in the new base, or one of the carried inserts.
	var carried tombs
	var carriedIDs []int // ascending, for the rotated log
	carry := func(id int) {
		inBase, pos, _, _ := carried.locate(newBase, fresh.firstID, fresh.Len(), id)
		if inBase {
			carried.baseDead.add(pos, newBase.size())
		} else {
			carried.deltaDead.add(pos, fresh.Len())
		}
		carriedIDs = append(carriedIDs, id)
	}
	cur.baseDead.bits.Each(func(pos int) {
		if !snap.baseDead.bits.Has(pos) {
			carry(cur.base.ids.ID(pos))
		}
	})
	cur.deltaDead.bits.Each(func(pos int) {
		if !snap.deltaDead.bits.Has(pos) {
			carry(cur.delta.firstID + pos)
		}
	})
	// Durable half two: rotate the log under the writer lock, so the carried
	// churn written into the new log is exactly the churn the new view holds
	// and no mutation can slip between them.
	var oldLog *wal.Log
	if x.dur != nil {
		select {
		case <-x.closed:
			x.mu.Unlock()
			err := fmt.Errorf("live: compact: %w", aperr.ErrClosed)
			return err
		default:
		}
		var err error
		if oldLog, err = x.rotateDurable(newGen, snap, cur, carriedIDs); err != nil {
			x.mu.Unlock()
			err = fmt.Errorf("live: compact rotate: %w", err)
			return err
		}
	}
	next := &view{
		base:   newBase,
		delta:  fresh.snapshot(),
		tombs:  carried,
		nextID: cur.nextID,
	}
	x.store = fresh
	x.cur.Store(next)
	x.mu.Unlock()
	if x.dur != nil {
		x.finishDurable(newGen, oldLog)
	}
	// Retire the old generation's modeled meter and candidate counter into
	// the accumulators; the brief tail a search still in flight on the old
	// view accrues after this sample is accepted accounting slack.
	if snap.base != nil {
		x.retiredNS.Add(int64(snap.base.searcher.ModeledTime()))
		x.retiredPairs.Add(snap.base.searcher.Stats().CandidatesScanned)
	}
	x.reconfigNS.Add(int64(reconfig))
	x.compactions.Add(1)
	x.generation.Add(1)
	return nil
}

// survivors copies the view's live vectors into a fresh dataset, with the
// map of their global IDs: base survivors then delta ones, ascending
// global-ID order — base IDs all precede delta IDs — so that an index
// compiled from it breaks (Dist, internalID) ties as the global order does.
// Each maximal run of live vectors between two tombstones is one copy and
// one append to the map, so an unbroken ID range stays one run.
func (v *view) survivors() (*bitvec.Dataset, bitvec.IDMap) {
	out := bitvec.NewDataset(v.delta.Dim())
	out.Grow(v.liveLen())
	var ids bitvec.IDMap
	if b := v.base; b != nil {
		words, wordsPV := b.ds.Words(), b.ds.WordsPerVector()
		v.baseDead.bits.ClearRuns(b.size(), func(lo, hi int) {
			out.AppendWords(words[lo*wordsPV : hi*wordsPV])
			ids.AppendSub(b.ids, lo, hi)
		})
	}
	words, wordsPV := v.delta.Words(), v.delta.WordsPerVector()
	v.deltaDead.bits.ClearRuns(v.delta.Len(), func(lo, hi int) {
		out.AppendWords(words[lo*wordsPV : hi*wordsPV])
		ids.AppendRange(v.delta.firstID+lo, hi-lo)
	})
	return out, ids
}

// compactor is the background loop: it folds churn when the threshold
// notification fires or the max-staleness ticker does.
func (x *Index) compactor() {
	defer x.wg.Done()
	var tick <-chan time.Time
	if x.opts.CompactInterval > 0 {
		t := time.NewTicker(x.opts.CompactInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-x.closed:
			return
		case <-x.notify:
		case <-tick:
		}
		// A failure is counted by Compact (apknn_live_compaction_failures_total);
		// the old generation keeps serving and the next trigger retries.
		_ = x.Compact(context.Background())
	}
}

// Close stops the background loops (compactor and, when durable, the flush
// timer) and releases the WAL handle, syncing it first. Closing twice — or
// concurrently — is safe and returns nil after the first call. A non-durable
// index remains searchable and mutable afterwards; a durable index remains
// searchable but rejects further mutations with aperr.ErrClosed, because an
// unlogged mutation could not survive a crash.
func (x *Index) Close() error {
	var err error
	x.closeOnce.Do(func() {
		close(x.closed)
		x.wg.Wait()
		x.mu.Lock()
		if x.wal != nil {
			err = x.wal.Close()
		}
		x.mu.Unlock()
	})
	return err
}

// Dataset returns a point-in-time copy of the merged live view — base
// survivors then delta entries, ascending global-ID order, tombstones
// dropped — densely renumbered from zero. This is the exact vector set a
// search sees, so saving it and recompiling yields identical distances; the
// global IDs themselves are the durability directory's job to persist.
func (x *Index) Dataset() *bitvec.Dataset {
	out, _ := x.cur.Load().survivors()
	return out
}

// Base returns the current generation's compiled backend index, or nil when
// every base vector is deleted — apknn merges its counters into Stats.
func (x *Index) Base() apstats.Index {
	if b := x.cur.Load().base; b != nil {
		return b.searcher
	}
	return nil
}

// ModeledTime returns the accumulated modeled wall-clock of the live index:
// the current base's meter, every retired generation's meter at the moment
// it was swapped out, the CPU cost of the delta scans, and the
// reconfiguration sweeps the compactions charged.
func (x *Index) ModeledTime() time.Duration {
	t := time.Duration(x.retiredNS.Load() + x.deltaScanNS.Load() + x.reconfigNS.Load())
	if b := x.Base(); b != nil {
		t += b.ModeledTime()
	}
	return t
}

// Metrics returns the index's metric set.
func (x *Index) Metrics() *obs.Set { return &x.metrics }

// CandidatesScanned is the query/candidate distance pairs evaluated over the
// index's whole life: the current base generation's counter, every retired
// generation's at its swap, and the delta scans. Like ModeledTime it never
// restarts at a compaction.
func (x *Index) CandidatesScanned() int64 {
	n := x.retiredPairs.Load() + x.deltaPairs.Load()
	if b := x.Base(); b != nil {
		n += b.Stats().CandidatesScanned
	}
	return n
}

// Stats snapshots the live-layer counters.
func (x *Index) Stats() apstats.LiveStats {
	v := x.cur.Load()
	return apstats.LiveStats{
		Inserts:            x.inserts.Load(),
		Deletes:            x.deletes.Load(),
		BaseSize:           v.baseSize(),
		DeltaSize:          v.delta.Len(),
		Tombstones:         v.count(),
		Compactions:        x.compactions.Load(),
		CompactionFailures: x.compactFails.Load(),
		Generation:         x.generation.Load(),
		MixedSearches:      x.mixedSearches.Load(),
		ReconfigTime:       time.Duration(x.reconfigNS.Load()),
		DeltaScanTime:      time.Duration(x.deltaScanNS.Load()),
	}
}
