// The production hot-path kernel: a cache-blocked, goroutine-parallel
// bit-Hamming scan. Where Linear is the readable oracle — one slice header,
// one function call, one heap interaction per vector — the kernel shares the
// dataset's packed-word slab out across cores in cache-sized blocks, scores
// every query of a batch against a block while it is resident, runs the
// XOR+POPCNT inner loop in AVX-512 where the host has VPOPCNTQ (unrolled
// math/bits elsewhere), keeps a bounded per-core heap whose threshold prunes
// candidates with a single compare, and merges the per-core partials. The
// AVX-512 loop scores eight queries per load of a group of vectors (four
// for a remainder), prefetching the slab ahead of it, and hands back lane
// masks, so Go re-scores only the vectors the masks flag.
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
	// parallelism): at most this many cores share out the slab's blocks,
	// for every batch shape — the caller and up to Workers-1 of the
	// package's pooled helper goroutines, which never outnumber the other
	// cores (GOMAXPROCS-1). <= 0 means runtime.GOMAXPROCS(0).
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
	// share of vectors x stride x queries — for a second worker to make the
	// scan shorter. Below it a split buys nothing: on a 2-vCPU Xeon VM a
	// 256 KiB single-query SIMD scan took 7.8–8.5 us on one worker and
	// 7.6–10.1 us on two. An 8 KiB threshold did raise single-query
	// serving throughput 12–24 %, but the scan was no shorter: the gain
	// was the polling helper holding the second vCPU awake, which is not a
	// property of the scan. The figure is for the portable loop (~8 GB/s
	// per core); the SIMD loop scans simdSpeedup times the data in the
	// same time.
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
// without allocating. It panics on k <= 0 — the public entry points validate
// k before any TopK exists, so a non-positive k here is a kernel bug.
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

// simdScanBlock is the host's SIMD ScanBlock, installed at init by
// kernel_amd64.go when CPUID reports AVX-512 F + VPOPCNTDQ with OS-enabled
// ZMM state; nil on every other host, on non-amd64, and under -tags purego.
// It is called only with n >= simdGroup and a stride simdStride accepts.
var simdScanBlock func(t *TopK, slab []uint64, wordsPV int, qw []uint64, baseID, n int)

// simdScanTile is ScanBlock of len(ts) queries (heaps ts[j], words qws[j]),
// tileQueries or tileNarrow of them, over one block in one pass, installed
// and called as simdScanBlock is: the batch loop's register tile, so a
// resident block is read once per tile of queries instead of once per
// query.
var simdScanTile func(ts []TopK, slab []uint64, wordsPV int, qws [][]uint64, baseID, n int)

const (
	// simdGroup is the number of vectors the SIMD primitive tests per step.
	simdGroup = 16
	// tileQueries is the number of queries simdScanTile scores per load,
	// tileNarrow the number it scores per load of a remainder of
	// tileNarrow to tileQueries-1 queries.
	tileQueries = 8
	tileNarrow  = 4
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
// repository — the dataset kernel iterates it (or, eight or four queries at
// a time, its SIMD tile) over cache-sized slices of the backing slab,
// internal/live calls it once per query over its whole delta slab — and it
// picks the inner loop: the AVX-512 primitive when the host has it and the
// stride is one it covers (see kernel_amd64.go), the portable math/bits
// loop otherwise. Both retain exactly the same candidates. A vector whose
// ID t refuses (TopK.Exclude) is scored like any other and dropped by Offer,
// except that while t is filling a run of them is stepped over. It panics
// on a malformed block (a kernel-caller bug, never reachable from validated
// public entry points).
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
// word slices and one bounded heap per (slot, query) — pooled so a
// steady-state scan allocates nothing but the result lists it returns. A
// call that shares its slab publishes its scratch as the job helpers join
// (see share): the slab fields are written before state opens the job and
// read by a helper only after its join succeeds.
type scanScratch struct {
	qws   [][]uint64
	heaps []TopK       // slot-major: slot i owns heaps[i*nq : (i+1)*nq]
	heads []int        // merge cursors, one per slot that scanned
	next  atomic.Int64 // first vector of the next unclaimed block

	words             []uint64
	wordsPV, n, block int
	done              <-chan struct{}
	state             atomic.Uint64 // parked | seats<<seatShift | finished<<countBits | joined
	wake              chan struct{} // the last helper's wake-up of a parked caller
}

var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// maxPooledNeighbors bounds the heap capacity a scratch may carry back into
// the pool (256 KiB of Neighbors): a huge-k request must not stay pinned
// behind the pool after it is answered.
const maxPooledNeighbors = 16 << 10

func getScratch(slots, nq, k int, dead bitvec.Bitset) *scanScratch {
	s := scratchPool.Get().(*scanScratch)
	s.reset(slots, nq, k, dead)
	return s
}

// reset sizes s for a call of nq queries on up to slots slots, its heaps
// empty.
func (s *scanScratch) reset(slots, nq, k int, dead bitvec.Bitset) {
	if s.wake == nil {
		s.wake = make(chan struct{}, 1)
	}
	if cap(s.qws) < nq {
		s.qws = make([][]uint64, nq)
	}
	s.qws = s.qws[:nq]
	if cap(s.heaps) < slots*nq {
		heaps := make([]TopK, slots*nq)
		copy(heaps, s.heaps[:cap(s.heaps)]) // keep the grown backing arrays
		s.heaps = heaps
	}
	s.heaps = s.heaps[:slots*nq]
	for i := range s.heaps {
		s.heaps[i].Reset(k, dead)
	}
	if cap(s.heads) < slots {
		s.heads = make([]int, slots)
	}
}

func putScratch(s *scanScratch) {
	// The pool must not keep a request's queries, a dataset's slab or a
	// view's tombstones alive.
	s.words, s.done = nil, nil
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

// scanBlocks is the kernel's one loop nest, run by every slot of a call:
// claim the next block of the slab off the call's shared cursor, score every
// query of the batch against it into the slot's heaps while it is
// cache-resident, repeat until none is left — so the slab crosses the memory
// bus once per batch, not once per query. Blocks are claimed, not
// pre-assigned: a helper that joins late shortens the scan by whatever it
// still can and never stretches it (one that finds no block left returns at
// once). Each block's queries go through scanQueries. Each query touches
// two cache lines of state per block (its words, its heap's root), so
// thousands of queries fit beside a block. It leaves each of the slot's
// heaps sorted. Cancellation is checked between blocks.
func (s *scanScratch) scanBlocks(slot int) {
	words, wordsPV, n, block := s.words, s.wordsPV, s.n, s.block
	nq := len(s.qws)
	heaps := s.heaps[slot*nq : (slot+1)*nq]
	for {
		b := int(s.next.Add(int64(block))) - block
		if b >= n {
			break
		}
		select {
		case <-s.done:
			return
		default:
		}
		be := b + block
		if be > n {
			be = n
		}
		scanQueries(heaps, words[b*wordsPV:be*wordsPV], wordsPV, s.qws, b, be-b)
	}
	for qi := range heaps {
		heaps[qi].Sorted()
	}
}

// scanQueries is ScanBlock of every query qws[qi] into heaps[qi] over one
// block. Where the SIMD tile runs, the queries go to it tileQueries (eight)
// at a time — each group of vectors is loaded and shuffled once for all of
// them, the CPU form of the paper's §VI-B multiplexing of query slices onto
// one symbol stream — a remainder of four to seven to its four-wide form,
// and the one to three left over through ScanBlock one by one.
func scanQueries(heaps []TopK, slab []uint64, wordsPV int, qws [][]uint64, baseID, n int) {
	qi, nq := 0, len(qws)
	if simdScanTile != nil && n >= simdGroup && simdStride(wordsPV) {
		for ; qi+tileQueries <= nq; qi += tileQueries {
			simdScanTile(heaps[qi:qi+tileQueries], slab, wordsPV, qws[qi:qi+tileQueries], baseID, n)
		}
		if qi+tileNarrow <= nq {
			simdScanTile(heaps[qi:qi+tileNarrow], slab, wordsPV, qws[qi:qi+tileNarrow], baseID, n)
			qi += tileNarrow
		}
	}
	for ; qi < nq; qi++ {
		ScanBlock(&heaps[qi], slab, wordsPV, qws[qi], baseID, n)
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
// into out. The caller scans slot 0 itself; with workers > 1 it first
// publishes the call as a job up to workers-1 helpers join (share), each
// into its own slot's heaps, and every query's sorted partials of the slots
// that scanned merge into one freshly allocated result list.
func scanAll(ctx context.Context, ds *bitvec.Dataset, queries []bitvec.Vector, k, workers, block int, dead bitvec.Bitset, out [][]Neighbor) error {
	// Helpers are goroutines that poll on a core of their own, so there are
	// never more seats than other cores.
	seats := 0
	if workers > 1 {
		seats = min(workers, runtime.GOMAXPROCS(0)) - 1
	}
	nq := len(queries)
	s := getScratch(seats+1, nq, k, dead)
	defer putScratch(s)
	for i, q := range queries {
		s.qws[i] = q.Words()
	}
	s.words, s.wordsPV, s.n, s.block = ds.Words(), ds.WordsPerVector(), ds.Len(), block
	s.done = ctx.Done()
	s.next.Store(0)

	start := time.Now()
	joined := 0
	if seats > 0 {
		joined = s.share(seats)
	} else {
		s.scanBlocks(0)
	}
	if err := ctx.Err(); err != nil {
		return aperr.Canceled(err)
	}
	scanHist.Record(time.Since(start))

	mergeStart := time.Now()
	s.heads = s.heads[:joined+1]
	for qi := range out {
		out[qi] = s.merge(qi, nq, k)
	}
	if joined > 0 {
		mergeHist.Record(time.Since(mergeStart))
	}
	return nil
}

// A shared scan hands out its slab through one package-level slot, so a
// helper left polling by the last scan joins the next one at once instead of
// a fresh goroutine waiting for an idle core to be woken — 100 us to several
// ms on a virtualized host, longer than the scan it was started for.
//
// The caller of a shared scan stores its scratch in jobSlot, opens seats
// for up to seats helpers and scans slot 0 itself. A helper joins with one
// CAS on the job's state word, which hands it the next seat's slot, and
// claims blocks off the same cursor. When the cursor runs out the caller
// closes the job (no seat is left to take, so a helper that comes later is
// refused and touches nothing), withdraws it from jobSlot (so no helper and
// no pool keeps a slab reachable), waits only for the helpers that joined,
// and merges.
//
// A helper that finishes polls jobSlot for helperWindow, and exits if no
// job came. It keeps its core and its P — it never calls runtime.Gosched,
// which would leave it on Go's global run queue while its P stopped
// polling the network — but between looks it offers the core to any other
// thread the OS has waiting for it (osYield), so where another process
// shares the host it spins only on time nobody else wants. A scan starts
// new helpers only for the shortfall of polling ones, and helpers alive
// plus shared scans in flight never outnumber GOMAXPROCS: a helper exits
// at once rather than poll on a core a caller could run on, so callers
// that already fill every core scan alone. With one P there is no helper
// at all.
var (
	jobSlot atomic.Pointer[scanScratch]
	// helpers counts the pool's goroutines, alive<<32 | polling, and
	// sharing the callers inside share.
	helpers atomic.Int64
	sharing atomic.Int64
)

const (
	// awaitSpin is how long a caller spins for its joined helpers before
	// it parks: several times the scoring of one block of a batch (64 KiB
	// x 8 queries, ~10 us on one core), so only a helper that lost its
	// core is waited for parked.
	awaitSpin = 50 * time.Microsecond

	// helperWindow is how long an idle helper polls jobSlot before it
	// exits. It must outlast the gap between two scans of a closed-loop
	// client (a response written, the next request read and decoded), or
	// every scan of such a client waits for a core to wake again: on a
	// 2-vCPU VM 500 us did that, 250 us did not.
	helperWindow = 500 * time.Microsecond

	aliveOne = 1 << 32

	// The job's state word: the number of helpers that joined, the number
	// that finished, and the number of seats — joins refused at joined ==
	// seats, which is how close refuses them — and whether the caller
	// parked in await.
	countBits   = 21
	countMask   = 1<<countBits - 1
	finishedOne = 1 << countBits
	seatShift   = 2 * countBits
	parkedBit   = 1 << 63
)

// share runs s's scan (its fields set, seats >= 1) on the caller and the
// helpers that join it, and returns how many joined: slots 1..joined hold
// their partials.
func (s *scanScratch) share(seats int) int {
	sharing.Add(1)
	defer sharing.Add(-1)
	s.open(seats)
	jobSlot.Store(s)
	recruit(seats)
	s.scanBlocks(0)
	joined := s.close()
	jobSlot.CompareAndSwap(s, nil)
	s.await(joined)
	return joined
}

// await returns once the joined helpers of closed s have finished. Each is
// past its last claim once the cursor is spent, so this is at most one
// block's scoring away and the caller spins — unless a helper's core was
// taken from it (another process on the host): past awaitSpin the caller
// parks, so that its own core goes idle and the OS moves the helper's
// thread onto it, and the last helper to finish wakes it.
func (s *scanScratch) await(joined int) {
	deadline := time.Now().Add(awaitSpin)
	for {
		st := s.state.Load()
		if int(st>>countBits&countMask) == joined {
			return
		}
		if time.Now().After(deadline) && s.state.CompareAndSwap(st, st|parkedBit) {
			<-s.wake
			return
		}
	}
}

// open makes seats seats of s free for helpers to join.
func (s *scanScratch) open(seats int) {
	s.state.Store(uint64(min(seats, countMask)) << seatShift)
}

// join takes the next free seat of s, returning its slot, or reports that
// s is closed or full.
func (s *scanScratch) join() (slot int, ok bool) {
	for {
		st := s.state.Load()
		joined := st & countMask
		if joined >= st>>seatShift&countMask {
			return 0, false
		}
		if s.state.CompareAndSwap(st, st+1) {
			return int(joined) + 1, true
		}
	}
}

// close refuses every later join — it takes the seats no helper has — and
// returns how many helpers joined.
func (s *scanScratch) close() int {
	for {
		st := s.state.Load()
		joined := st & countMask
		if s.state.CompareAndSwap(st, joined<<seatShift|st&(countMask<<countBits)|joined) {
			return int(joined)
		}
	}
}

// finish reports a joined helper's slot scanned, waking the caller if it
// parked for this, the last helper, and reporting whether it did. After
// finish the helper no longer touches s, which its caller may recycle.
func (s *scanScratch) finish() (woke bool) {
	st := s.state.Add(finishedOne)
	if st&parkedBit == 0 || st>>countBits&countMask != st&countMask {
		return false
	}
	s.wake <- struct{}{}
	return true
}

// recruit starts helpers for a job of seats seats just published: as many
// as it has seats beyond the helpers already polling, within the cores that
// no shared scan or helper holds.
func recruit(seats int) {
	procs := int64(runtime.GOMAXPROCS(0))
	for {
		h := helpers.Load()
		alive, polling := h>>32, h&(aliveOne-1)
		start := min(int64(seats)-polling, procs-sharing.Load()-alive)
		if start <= 0 {
			return
		}
		if helpers.CompareAndSwap(h, h+start*aliveOne) {
			for ; start > 0; start-- {
				go helper()
			}
			return
		}
	}
}

// helper is a pooled helper goroutine: it polls jobSlot and scans a slot of
// every job it finds a seat in, until helperWindow passes without one or
// callers need its core. While it scans it does not count as polling. A
// helper whose caller parked for it leaves at once: its core is not its
// own, and the caller it woke runs next on the P it is leaving.
func helper() {
	procs := int64(runtime.GOMAXPROCS(0))
	helpers.Add(1)
	deadline := time.Now().Add(helperWindow)
	for {
		if j := jobSlot.Load(); j != nil {
			if slot, ok := j.join(); ok {
				helpers.Add(-1)
				j.scanBlocks(slot)
				helpers.Add(1)
				if j.finish() {
					helpers.Add(-aliveOne - 1)
					return
				}
				deadline = time.Now().Add(helperWindow)
			}
		}
		if time.Now().Before(deadline) && helpers.Load()>>32+sharing.Load() <= procs {
			osYield()
			continue
		}
		// Leave, then look once more: a scan that counted this helper as
		// polling, and so started none, published its job before it looked.
		helpers.Add(-aliveOne - 1)
		if jobSlot.Load() == nil || !reenlist(procs) {
			return
		}
		deadline = time.Now().Add(helperWindow)
	}
}

// reenlist counts a helper that has left back in, polling, unless the cores
// have been filled since.
func reenlist(procs int64) bool {
	for {
		h := helpers.Load()
		if h>>32+sharing.Load() >= procs {
			return false
		}
		if helpers.CompareAndSwap(h, h+aliveOne+1) {
			return true
		}
	}
}

// merge returns query qi's k best across the slots' sorted partials as a
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
