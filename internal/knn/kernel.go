// The production hot-path kernel: a cache-blocked, goroutine-parallel
// bit-Hamming scan. Where Linear is the readable oracle — one slice header,
// one function call, one heap interaction per vector — the kernel shares the
// dataset's packed-word slab out across cores in cache-sized blocks, scores
// every query of a batch against a block while it is resident, runs the
// XOR+POPCNT inner loop in AVX-512 where the host has VPOPCNTQ (unrolled
// math/bits elsewhere), keeps a bounded per-core heap whose threshold prunes
// candidates with a single compare, and merges the per-core partials. The
// AVX-512 loop scores four queries per load of a group of vectors and hands
// back lane masks, so Go re-scores only the vectors the masks flag.
// Results are byte-identical to Linear: the same (Dist, ID) tie-break
// everywhere, and the global top-k is always contained in the union of the
// per-core top-k sets.
//
// Entry points are panic-proof: Scan and ScanBatch validate k and query
// dimensionality up front and return typed errors in the calling goroutine,
// so a hostile wire-supplied k can never kill a worker goroutine (and with
// it the serving process).
package knn

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/obs"
)

// The kernel's latency histograms: the scan itself and the merge of
// per-shard partials, separated so a regression in either shows up as its
// own series rather than folded into an aggregate. Record costs two
// monotonic reads and a few atomic adds per entry-point call — noise next
// to even the smallest full-dataset scan.
var (
	scanHist = obs.NewHistogram("apknn_kernel_scan_seconds",
		"Blocked Hamming-scan kernel latency per Scan/ScanBatch call")
	mergeHist = obs.NewHistogram("apknn_kernel_merge_seconds",
		"Per-shard partial top-k merge latency per parallel scan")
)

// ScanConfig tunes the kernel. The zero value auto-sizes everything: one
// worker per CPU (bounded so each worker's share stays worth a goroutine, see
// minShardBytes) and blocks sized to defaultBlockBytes of packed data.
type ScanConfig struct {
	// Workers is the data-parallel width (the paper's §II-A data-level
	// parallelism): at most this many goroutines share out the slab's
	// blocks, for every batch shape. <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// BlockVectors is the number of vectors per cache block. <= 0 derives it
	// from defaultBlockBytes and the vector width.
	BlockVectors int
	// Exclude is a set of dataset positions the scan must never return —
	// internal/live's tombstones. The scan answers exactly as Linear would
	// over the remaining vectors with their positions kept; it scores the
	// excluded ones all the same, and refuses them where a candidate enters
	// a heap (TopK.Offer), so the cost does not grow with the set. Nil
	// excludes nothing. A non-nil set must cover the dataset
	// (Exclude.Covers(ds.Len())): a shorter one is a set built for another
	// dataset, and the entry points refuse it.
	Exclude bitvec.Bitset
}

const (
	// defaultBlockBytes is the packed-data footprint of one kernel block,
	// sized to stay cache-resident next to the query words and heap roots
	// while every query of a batch is scored against it, and large enough
	// that the per-(block, query) dispatch is free.
	defaultBlockBytes = 64 << 10

	// minShardBytes is the least data one worker must have to score — its
	// share of vectors x stride x queries — for a goroutine to be worth
	// starting: handing work to another core costs tens of microseconds
	// (wake-up, join, merge), so a worker needs about twice that of
	// scanning. The figure is for the portable loop (~8 GB/s per core,
	// ~60 us); the SIMD loop scans simdSpeedup times the data in that time.
	minShardBytes = 512 << 10
	simdSpeedup   = 8
)

// effectiveWorkers resolves the worker count for a call that scores
// scanBytes of packed data in all (every query against every vector).
func (cfg ScanConfig) effectiveWorkers(scanBytes int) int {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	perWorker := minShardBytes
	if simdScanBlock != nil {
		perWorker *= simdSpeedup
	}
	if max := scanBytes / perWorker; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// check refuses a dataset the heap key cannot order (see keyIDBits) and an
// exclusion set that cannot be ds's.
func (cfg ScanConfig) check(ds *bitvec.Dataset) error {
	if uint64(ds.Len()) > 1<<keyIDBits || ds.Dim() >= 1<<keyDistBits {
		return fmt.Errorf("knn: %d vectors of %d bits is past the scan's 2^%d vectors of under 2^%d bits",
			ds.Len(), ds.Dim(), keyIDBits, keyDistBits)
	}
	if cfg.Exclude != nil && !cfg.Exclude.Covers(ds.Len()) {
		return fmt.Errorf("knn: exclusion set covers %d positions, dataset has %d", len(cfg.Exclude)*64, ds.Len())
	}
	return nil
}

// effectiveBlock resolves the block size in vectors for the given stride.
func (cfg ScanConfig) effectiveBlock(wordsPV int) int {
	if cfg.BlockVectors > 0 {
		return cfg.BlockVectors
	}
	b := defaultBlockBytes / (8 * wordsPV)
	if b < 1 {
		return 1
	}
	return b
}

// TopK is the bounded-heap top-k accumulator the kernel fills: it retains
// the k best (Dist, ID) candidates seen so far, with Threshold exposing the
// current worst retained distance so hot loops can prune with one integer
// compare before touching the heap.
type TopK struct {
	k    int
	h    maxHeap
	dead bitvec.Bitset // IDs Offer refuses; nil in all but live-index scans
	// seed is what a candidate must order before while the heap is not full:
	// the k-th neighbor the caller already holds (Seed), or unbounded.
	seed Neighbor
}

// unbounded is the seed of a TopK that was not given one: every candidate
// in the key's domain orders before it.
var unbounded = Neighbor{ID: math.MaxInt, Dist: math.MaxInt}

// The heap orders candidates by one integer, Dist<<keyIDBits | ID, which
// sorts exactly as (Dist, ID) does while IDs stay in [0, 2^keyIDBits) and
// distances in [0, 2^keyDistBits): a sift step is one unsigned compare, not
// two branchy ones. Offer panics on a candidate outside that domain, and
// Scan and ScanBatch refuse a dataset that could produce one; a negative ID
// (a Seed's) is never stored, so it never reaches a key.
const (
	keyIDBits   = 40
	keyDistBits = 24
)

func (n Neighbor) key() uint64 { return uint64(n.Dist)<<keyIDBits | uint64(n.ID) }

// NewTopK returns an accumulator for the k best neighbors. It panics on
// k <= 0 — the public entry points validate k before any TopK exists, so a
// non-positive k here is a kernel bug, not a runtime condition.
func NewTopK(k int) *TopK {
	t := new(TopK)
	t.Reset(k, nil)
	return t
}

// Exclude makes t refuse every later Offer of an ID in dead (IDs past the
// set's end are not in it). Candidates already retained stay.
func (t *TopK) Exclude(dead bitvec.Bitset) { t.dead = dead }

// Seed gives an empty t a starting bound: it retains only candidates that
// order before worst under (Dist, ID), as if its heap were already full with
// worst at the root. A caller holding k neighbors from elsewhere seeds with
// its k-th, and t gathers just the candidates that displace some of them —
// the SIMD loop then flags only those. worst is never stored, so its ID may
// be negative: a scan whose IDs are shifted (a live delta's entry indexes)
// seeds with the shifted ID and keeps the tie-break exact.
func (t *TopK) Seed(worst Neighbor) { t.seed = worst }

// Offer considers one candidate. It is cheap once the heap is full: a single
// key compare against the root unless the candidate displaces it. Hot loops
// call it only for candidates within Threshold, which is why the exclusion
// test lives here and not beside the distance.
func (t *TopK) Offer(id, dist int) {
	if t.dead != nil && t.dead.Has(id) {
		return
	}
	if uint64(id)>>keyIDBits|uint64(dist)>>keyDistBits != 0 {
		outsideKey(id, dist)
	}
	cand := Neighbor{ID: id, Dist: dist}
	if len(t.h) < t.k {
		if cand.Less(t.seed) {
			pushHeap(&t.h, cand)
		}
		return
	}
	if cand.key() < t.h[0].key() {
		t.h[0] = cand
		fixRoot(t.h)
	}
}

func outsideKey(id, dist int) {
	panic(fmt.Sprintf("knn: candidate ID %d at distance %d is outside the heap key's domain", id, dist))
}

// Threshold returns the distance a candidate must not exceed to possibly be
// retained: the root (worst) distance once the heap is full, the seed's
// before — MaxInt when there is none. A candidate with dist > Threshold()
// can be skipped without consulting the heap; dist == Threshold() still
// needs Offer for the ID tie-break.
func (t *TopK) Threshold() int {
	if len(t.h) < t.k {
		return t.seed.Dist
	}
	return t.h[0].Dist
}

// bound is Threshold sharpened for candidates whose IDs are all >= minID:
// once the worst retained (or seeded) ID is at or below minID, a candidate
// that ties its distance loses the ID tie-break, so only strictly closer
// ones can enter. The SIMD loop compares against this, which keeps
// tie-heavy data (many vectors at exactly the worst retained distance) from
// flagging every group.
func (t *TopK) bound(minID int) int {
	worst := t.seed
	if len(t.h) == t.k {
		worst = t.h[0]
	}
	if worst.ID <= minID {
		return worst.Dist - 1
	}
	return worst.Dist
}

// Len returns the number of retained candidates.
func (t *TopK) Len() int { return len(t.h) }

// Reset empties t for a new scan of bound k, unseeded, that refuses the IDs
// in dead, keeping its backing array: a TopK kept between scans fills
// without allocating. It panics on k <= 0, as NewTopK does.
func (t *TopK) Reset(k int, dead bitvec.Bitset) {
	if k <= 0 {
		panic(fmt.Sprintf("knn: TopK k must be positive, got %d", k))
	}
	t.k = k
	t.dead = dead
	t.seed = unbounded
	if t.h == nil {
		// Lazily grown: a hostile wire-supplied k (math.MaxInt) must not
		// allocate k slots up front. The heap never exceeds min(k, offers).
		hcap := k
		if hcap > 1024 {
			hcap = 1024
		}
		t.h = make(maxHeap, 0, hcap+1)
	}
	t.h = t.h[:0]
}

// Sorted orders the retained candidates by (Dist, ID) in place — a heapsort
// of what is already a max-heap, so it allocates nothing — and returns
// them. The list is t's own storage: it is valid, and t accepts no Offer,
// until the next Reset.
func (t *TopK) Sorted() []Neighbor {
	for end := len(t.h) - 1; end > 0; end-- {
		t.h[0], t.h[end] = t.h[end], t.h[0]
		fixRoot(t.h[:end])
	}
	return t.h
}

// Neighbors drains the accumulator as a (Dist, ID)-sorted result list the
// caller owns.
func (t *TopK) Neighbors() []Neighbor {
	out := t.Sorted()
	t.h = nil
	return out
}

// simdScanBlock is the host's SIMD ScanBlock, installed at init by
// kernel_amd64.go when CPUID reports AVX-512 F + VPOPCNTDQ with OS-enabled
// ZMM state; nil on every other host, on non-amd64, and under -tags purego.
// It is called only with n >= simdGroup and a stride simdStride accepts.
var simdScanBlock func(t *TopK, slab []uint64, wordsPV int, qw []uint64, baseID, n int)

// simdScanTile is ScanBlock of tileQueries queries (heaps ts[j], words
// qws[j]) over one block in one pass, installed and called as simdScanBlock
// is: the batch loop's register tile, so a resident block is read once per
// tileQueries queries instead of once per query.
var simdScanTile func(ts []TopK, slab []uint64, wordsPV int, qws [][]uint64, baseID, n int)

const (
	// simdGroup is the number of vectors the SIMD primitive tests per step.
	simdGroup = 16
	// tileQueries is the number of queries simdScanTile scores per load.
	tileQueries = 4
)

// simdStride reports whether the SIMD primitive covers this words-per-vector
// stride: 1, 2 and 4 (d 64/128/256, the dimensionalities of the paper's
// workloads).
func simdStride(wordsPV int) bool { return wordsPV == 1 || wordsPV == 2 || wordsPV == 4 }

// KernelImpl names the inner loop ScanBlock dispatches to on this host:
// "avx512" or "portable".
func KernelImpl() string {
	if simdScanBlock != nil {
		return "avx512"
	}
	return "portable"
}

// pushHeap and fixRoot are container/heap's Push and Fix(0) specialized to
// maxHeap: the interface{} boxing and indirect method calls of the generic
// versions are measurable at one call per retained candidate. Both compare
// keys and move a hole instead of swapping.
func pushHeap(h *maxHeap, n Neighbor) {
	*h = append(*h, n)
	s := *h
	kn := n.key()
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].key() >= kn { // parent >= child in max-heap order
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = n
}

func fixRoot(h maxHeap) {
	n := len(h)
	x := h[0]
	kx := x.key()
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		kc := h[c].key()
		if r := c + 1; r < n {
			if kr := h[r].key(); kr > kc {
				c, kc = r, kr
			}
		}
		if kc <= kx {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// ScanBlock streams one contiguous block of n packed vectors into t: slab
// holds wordsPV words per vector, vector i gets ID baseID+i, qw is the
// query's packed words. It is the one XOR+POPCNT entry point of the
// repository — the dataset kernel iterates it (or, four queries at a time,
// its SIMD tile) over cache-sized slices of the backing slab, internal/live
// iterates it over delta chunks — and it picks the inner loop: the AVX-512
// primitive when the host has it and the stride is one it covers (see
// kernel_amd64.go), the portable math/bits loop otherwise. Both retain
// exactly the same candidates. A vector whose ID t refuses (TopK.Exclude)
// is scored like any other and dropped by Offer, except that while t is
// filling a run of them is stepped over. It panics on a malformed block (a
// kernel-caller bug, never reachable from validated public entry points).
func ScanBlock(t *TopK, slab []uint64, wordsPV int, qw []uint64, baseID, n int) {
	checkBlock(slab, wordsPV, qw, n)
	if simdScanBlock != nil && n >= simdGroup && simdStride(wordsPV) {
		simdScanBlock(t, slab, wordsPV, qw, baseID, n)
		return
	}
	i := fillHeap(t, slab, wordsPV, qw, baseID, n)
	scanBlockPortable(t, slab[i*wordsPV:], wordsPV, qw, baseID+i, n-i)
}

func checkBlock(slab []uint64, wordsPV int, qw []uint64, n int) {
	if wordsPV <= 0 || n < 0 || len(slab) < n*wordsPV || len(qw) < wordsPV {
		panic(fmt.Sprintf("knn: malformed block: %d words, stride %d, %d vectors, %d query words",
			len(slab), wordsPV, n, len(qw)))
	}
}

// fillHeap is the scan loops' prologue: until an unseeded t is full (its
// Threshold is MaxInt) every vector it does not refuse is retained, so the
// portable loop takes them, in passes no shorter than a SIMD group, and a
// run of refused ones — a prefix of oldest-first deletes — is stepped over
// a word of the exclusion set at a time. A seeded t is bounded from the
// start and needs no fill. It returns the number of vectors it consumed.
func fillHeap(t *TopK, slab []uint64, wordsPV int, qw []uint64, baseID, n int) int {
	i := 0
	for i < n && t.Threshold() == math.MaxInt {
		if t.dead != nil {
			if i = t.dead.NextClear(baseID+i, baseID+n) - baseID; i == n {
				break
			}
		}
		fill := min(max(t.k-t.Len(), simdGroup), n-i)
		scanBlockPortable(t, slab[i*wordsPV:], wordsPV, qw, baseID+i, fill)
		i += fill
	}
	return i
}

// offerLanes is the SIMD loops' re-score: for each lane set in lanes it
// scores vector order[lane] of the group at slab exactly and Offers it if
// it can enter. Lanes are not visited in ID order; Offer is exact, so the
// top-k does not depend on it.
func offerLanes(t *TopK, slab []uint64, wordsPV int, qw []uint64, baseID int, lanes uint16, order *[simdGroup]uint8) {
	for ; lanes != 0; lanes &= lanes - 1 {
		v := int(order[bits.TrailingZeros16(lanes)])
		d := 0
		for w, x := range slab[v*wordsPV : (v+1)*wordsPV] {
			d += bits.OnesCount64(x ^ qw[w])
		}
		if d <= t.Threshold() {
			t.Offer(baseID+v, d)
		}
	}
}

// scanBlockPortable is ScanBlock's math/bits inner loop, unrolled per word
// count: the only loop of a non-amd64 or purego build, the heap-fill
// prologue and sub-group tail of the SIMD one, and the oracle the SIMD path
// is fuzzed against.
func scanBlockPortable(t *TopK, slab []uint64, wordsPV int, qw []uint64, baseID, n int) {
	worst := t.Threshold()
	switch wordsPV {
	case 1:
		q0 := qw[0]
		i := 0
		for ; i+4 <= n; i += 4 {
			// Four independent distance chains per iteration keep the
			// POPCNT pipeline full instead of serializing on one counter.
			d0 := bits.OnesCount64(slab[i] ^ q0)
			d1 := bits.OnesCount64(slab[i+1] ^ q0)
			d2 := bits.OnesCount64(slab[i+2] ^ q0)
			d3 := bits.OnesCount64(slab[i+3] ^ q0)
			if d0 <= worst {
				t.Offer(baseID+i, d0)
				worst = t.Threshold()
			}
			if d1 <= worst {
				t.Offer(baseID+i+1, d1)
				worst = t.Threshold()
			}
			if d2 <= worst {
				t.Offer(baseID+i+2, d2)
				worst = t.Threshold()
			}
			if d3 <= worst {
				t.Offer(baseID+i+3, d3)
				worst = t.Threshold()
			}
		}
		for ; i < n; i++ {
			if d := bits.OnesCount64(slab[i] ^ q0); d <= worst {
				t.Offer(baseID+i, d)
				worst = t.Threshold()
			}
		}
	case 2:
		q0, q1 := qw[0], qw[1]
		i, off := 0, 0
		for ; i+4 <= n; i, off = i+4, off+8 {
			s := slab[off : off+8 : off+8]
			d0 := bits.OnesCount64(s[0]^q0) + bits.OnesCount64(s[1]^q1)
			d1 := bits.OnesCount64(s[2]^q0) + bits.OnesCount64(s[3]^q1)
			d2 := bits.OnesCount64(s[4]^q0) + bits.OnesCount64(s[5]^q1)
			d3 := bits.OnesCount64(s[6]^q0) + bits.OnesCount64(s[7]^q1)
			if d0 <= worst {
				t.Offer(baseID+i, d0)
				worst = t.Threshold()
			}
			if d1 <= worst {
				t.Offer(baseID+i+1, d1)
				worst = t.Threshold()
			}
			if d2 <= worst {
				t.Offer(baseID+i+2, d2)
				worst = t.Threshold()
			}
			if d3 <= worst {
				t.Offer(baseID+i+3, d3)
				worst = t.Threshold()
			}
		}
		for ; i < n; i, off = i+1, off+2 {
			d := bits.OnesCount64(slab[off]^q0) + bits.OnesCount64(slab[off+1]^q1)
			if d <= worst {
				t.Offer(baseID+i, d)
				worst = t.Threshold()
			}
		}
	case 3:
		q0, q1, q2 := qw[0], qw[1], qw[2]
		off := 0
		for i := 0; i < n; i, off = i+1, off+3 {
			s := slab[off : off+3 : off+3]
			d := bits.OnesCount64(s[0]^q0) + bits.OnesCount64(s[1]^q1) + bits.OnesCount64(s[2]^q2)
			if d <= worst {
				t.Offer(baseID+i, d)
				worst = t.Threshold()
			}
		}
	case 4:
		q0, q1, q2, q3 := qw[0], qw[1], qw[2], qw[3]
		off := 0
		for i := 0; i < n; i, off = i+1, off+4 {
			s := slab[off : off+4 : off+4]
			d := bits.OnesCount64(s[0]^q0) + bits.OnesCount64(s[1]^q1) +
				bits.OnesCount64(s[2]^q2) + bits.OnesCount64(s[3]^q3)
			if d <= worst {
				t.Offer(baseID+i, d)
				worst = t.Threshold()
			}
		}
	default:
		off := 0
		for i := 0; i < n; i, off = i+1, off+wordsPV {
			s := slab[off : off+wordsPV : off+wordsPV]
			d := 0
			w := 0
			for ; w+4 <= wordsPV; w += 4 {
				d += bits.OnesCount64(s[w]^qw[w]) + bits.OnesCount64(s[w+1]^qw[w+1]) +
					bits.OnesCount64(s[w+2]^qw[w+2]) + bits.OnesCount64(s[w+3]^qw[w+3])
			}
			for ; w < wordsPV; w++ {
				d += bits.OnesCount64(s[w] ^ qw[w])
			}
			if d <= worst {
				t.Offer(baseID+i, d)
				worst = t.Threshold()
			}
		}
	}
}

// scanScratch is the working state of one Scan/ScanBatch call — the query
// word slices and one bounded heap per (worker, query) — pooled so a
// steady-state scan allocates nothing but the result lists it returns.
type scanScratch struct {
	qws     [][]uint64
	heaps   []TopK         // worker-major: worker w owns heaps[w*nq : (w+1)*nq]
	heads   []int          // merge cursors, one per worker
	next    atomic.Int64   // first vector of the next unclaimed block
	workers sync.WaitGroup // the call's worker goroutines
}

var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// maxPooledNeighbors bounds the heap capacity a scratch may carry back into
// the pool (256 KiB of Neighbors): a huge-k request must not stay pinned
// behind the pool after it is answered.
const maxPooledNeighbors = 16 << 10

func getScratch(workers, nq, k int, dead bitvec.Bitset) *scanScratch {
	s := scratchPool.Get().(*scanScratch)
	if cap(s.qws) < nq {
		s.qws = make([][]uint64, nq)
	}
	s.qws = s.qws[:nq]
	if cap(s.heaps) < workers*nq {
		heaps := make([]TopK, workers*nq)
		copy(heaps, s.heaps[:cap(s.heaps)]) // keep the grown backing arrays
		s.heaps = heaps
	}
	s.heaps = s.heaps[:workers*nq]
	for i := range s.heaps {
		s.heaps[i].Reset(k, dead)
	}
	if cap(s.heads) < workers {
		s.heads = make([]int, workers)
	}
	s.heads = s.heads[:workers]
	return s
}

func putScratch(s *scanScratch) {
	// The pool must not keep a request's queries or a view's tombstones alive.
	retained := 0
	for i := range s.heaps {
		retained += cap(s.heaps[i].h)
		s.heaps[i].dead = nil
	}
	if retained > maxPooledNeighbors {
		return
	}
	for i := range s.qws {
		s.qws[i] = nil
	}
	scratchPool.Put(s)
}

// scanBlocks is the kernel's one loop nest: claim the next block of the slab
// off the call's shared cursor, score every query of the batch against it
// while it is cache-resident, repeat until none is left — so the slab crosses
// the memory bus once per batch, not once per query. Blocks are claimed, not
// pre-assigned: a worker whose core wakes late shortens the scan by whatever
// it still can and never stretches it (one that finds no block left returns
// at once). Where the SIMD tile runs, the block's queries go to it
// tileQueries at a time — each group of vectors is loaded and shuffled once
// for all of them, the CPU form of the paper's §VI-B multiplexing of query
// slices onto one symbol stream — and the one to three left over go through
// ScanBlock one by one. Each query touches two cache lines of state per
// block (its words, its heap's root), so thousands of queries fit beside a
// block. It leaves each heap sorted. Cancellation is checked between blocks.
func scanBlocks(next *atomic.Int64, done <-chan struct{}, words []uint64, wordsPV int, qws [][]uint64, heaps []TopK, n, block int) {
	for {
		b := int(next.Add(int64(block))) - block
		if b >= n {
			break
		}
		select {
		case <-done:
			return
		default:
		}
		be := b + block
		if be > n {
			be = n
		}
		slab := words[b*wordsPV : be*wordsPV]
		qi := 0
		if simdScanTile != nil && be-b >= simdGroup && simdStride(wordsPV) {
			for ; qi+tileQueries <= len(qws); qi += tileQueries {
				simdScanTile(heaps[qi:qi+tileQueries], slab, wordsPV, qws[qi:qi+tileQueries], b, be-b)
			}
		}
		for ; qi < len(qws); qi++ {
			ScanBlock(&heaps[qi], slab, wordsPV, qws[qi], b, be-b)
		}
	}
	for qi := range heaps {
		heaps[qi].Sorted()
	}
}

// plan sizes a call that scores nq queries against ds: how many workers
// share the slab and the block length in vectors.
func (cfg ScanConfig) plan(ds *bitvec.Dataset, nq int) (workers, block int) {
	n, wordsPV := ds.Len(), ds.WordsPerVector()
	// No block is longer than the slab: the cursor's additions stay far from
	// overflow whatever BlockVectors says.
	block = min(cfg.effectiveBlock(wordsPV), n)
	workers = cfg.effectiveWorkers(n * wordsPV * 8 * nq)
	if blocks := (n + block - 1) / block; workers > blocks {
		workers = blocks
	}
	return workers, block
}

// scanAll answers queries (validated by the caller, over a non-empty ds)
// into out: the workers run scanBlocks over the one slab, each into its own
// heaps, and every query's sorted per-worker partials merge into one freshly
// allocated result list.
func scanAll(ctx context.Context, ds *bitvec.Dataset, queries []bitvec.Vector, k, workers, block int, dead bitvec.Bitset, out [][]Neighbor) error {
	n := ds.Len()
	wordsPV := ds.WordsPerVector()
	words := ds.Words()
	nq := len(queries)
	s := getScratch(workers, nq, k, dead)
	defer putScratch(s)
	for i, q := range queries {
		s.qws[i] = q.Words()
	}

	start := time.Now()
	done := ctx.Done()
	s.next.Store(0)
	if workers == 1 {
		scanBlocks(&s.next, done, words, wordsPV, s.qws, s.heaps, n, block)
	} else {
		// Every worker is a goroutine and the caller only waits: parked, it
		// hands its own core to one of them at once and leaves the rest on
		// the run queue, where an idle core's first look finds them. (A
		// caller that scanned too would keep its one helper in the
		// scheduler's run-next slot, which other cores raid last and only
		// after a timed sleep — on a VM longer than a 100 us scan.)
		s.workers.Add(workers)
		for w := 0; w < workers; w++ {
			heaps := s.heaps[w*nq : (w+1)*nq]
			go func() {
				defer s.workers.Done()
				scanBlocks(&s.next, done, words, wordsPV, s.qws, heaps, n, block)
			}()
		}
		s.workers.Wait()
	}
	if err := ctx.Err(); err != nil {
		return aperr.Canceled(err)
	}
	scanHist.Record(time.Since(start))

	mergeStart := time.Now()
	for qi := range out {
		out[qi] = s.merge(qi, nq, k)
	}
	if workers > 1 {
		mergeHist.Record(time.Since(mergeStart))
	}
	return nil
}

// merge returns query qi's k best across the workers' sorted partials as a
// new list: the only allocation a steady-state scan makes per query.
func (s *scanScratch) merge(qi, nq, k int) []Neighbor {
	total := 0
	for w := range s.heads {
		s.heads[w] = 0
		total += len(s.heaps[w*nq+qi].h)
	}
	if total > k {
		total = k
	}
	out := make([]Neighbor, total)
	if len(s.heads) == 1 {
		copy(out, s.heaps[qi].h)
		return out
	}
	for i := range out {
		best := -1
		for w, at := range s.heads {
			h := s.heaps[w*nq+qi].h
			if at < len(h) && (best < 0 || h[at].Less(out[i])) {
				best, out[i] = w, h[at]
			}
		}
		s.heads[best]++
	}
	return out
}

// Scan is the single-query kernel entry point: an exact top-k scan of ds,
// data-parallel across up to cfg.Workers cores (each worker scans the blocks
// it claims into a private bounded heap; the sorted partials merge under the
// (Dist, ID) order), byte-identical to Linear. It returns aperr.ErrBadK for k <= 0 and aperr.ErrDimMismatch for a query of
// the wrong dimensionality.
func Scan(ds *bitvec.Dataset, q bitvec.Vector, k int, cfg ScanConfig) ([]Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("knn: got k=%d: %w", k, aperr.ErrBadK)
	}
	if q.Dim() != ds.Dim() {
		return nil, fmt.Errorf("knn: query dim %d != dataset dim %d: %w", q.Dim(), ds.Dim(), aperr.ErrDimMismatch)
	}
	if err := cfg.check(ds); err != nil {
		return nil, err
	}
	if ds.Len() == 0 {
		return []Neighbor{}, nil
	}
	var out [1][]Neighbor
	workers, block := cfg.plan(ds, 1)
	if err := scanAll(context.Background(), ds, []bitvec.Vector{q}, k, workers, block, cfg.Exclude, out[:]); err != nil {
		return nil, err
	}
	return out[0], nil
}

// ScanBatch answers many queries through the kernel. Every batch shape runs
// the same loop nest (scanBlocks): the workers share out the dataset's
// blocks (the paper's §II-A data-level parallelism) and each scores all
// queries of the batch against a block before it claims the next, so a
// batch streams the slab from memory once however many queries it holds.
//
// Cancellation is checked between blocks; a canceled context returns an
// error wrapping aperr.ErrCanceled instead of a partial result set. With
// cfg.Exclude set, a query gets fewer than k neighbors only when fewer than
// k vectors remain.
func ScanBatch(ctx context.Context, ds *bitvec.Dataset, queries []bitvec.Vector, k int, cfg ScanConfig) ([][]Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("knn: got k=%d: %w", k, aperr.ErrBadK)
	}
	for i, q := range queries {
		if q.Dim() != ds.Dim() {
			return nil, fmt.Errorf("knn: query %d dim %d != dataset dim %d: %w", i, q.Dim(), ds.Dim(), aperr.ErrDimMismatch)
		}
	}
	if err := cfg.check(ds); err != nil {
		return nil, err
	}
	out := make([][]Neighbor, len(queries))
	if len(queries) == 0 {
		return out, nil
	}
	if ds.Len() == 0 {
		for i := range out {
			out[i] = []Neighbor{}
		}
		return out, nil
	}
	workers, block := cfg.plan(ds, len(queries))
	if err := scanAll(ctx, ds, queries, k, workers, block, cfg.Exclude, out); err != nil {
		return nil, err
	}
	return out, nil
}
