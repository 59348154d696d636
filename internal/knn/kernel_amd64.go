//go:build amd64 && !purego

package knn

// maskW1/W2/W4 are the AVX-512 single-query primitive for strides of 1, 2
// and 4 words per vector. Each scores `groups` consecutive groups of
// simdGroup vectors starting at slab against the wordsPV query words at q —
// VPXORQ, VPOPCNTQ, an in-register pair/quad reduce, VPCMPQ against bound —
// and returns the index of the first group holding a vector with distance
// <= bound and that group's exact lane mask (lane l is vector
// laneVector[wordsPV][l] of the group), or groups and no lanes when none
// does. A bound below 0 flags nothing. They read exactly
// groups*simdGroup*wordsPV words of slab (no alignment requirement) and
// wordsPV words of q.
//
//go:noescape
func maskW1(slab *uint64, groups int, q *uint64, bound int) (group int, lanes uint16)

//go:noescape
func maskW2(slab *uint64, groups int, q *uint64, bound int) (group int, lanes uint16)

//go:noescape
func maskW4(slab *uint64, groups int, q *uint64, bound int) (group int, lanes uint16)

// tileW1/W2/W4 are the four-query primitive: the scan of maskW over the
// same groups for four queries at once — q holds their words one query
// after another, b0..b3 their bounds — stopping at the first group where
// any of them has a hit. Each group is loaded and brought to word-major
// form once for all four. Query j's mask is byte j of masks; its lane p
// flags lanes p and p+8 (either may hold the hit).
//
//go:noescape
func tileW1(slab *uint64, groups int, q *uint64, b0, b1, b2, b3 int) (group int, masks uint32)

//go:noescape
func tileW2(slab *uint64, groups int, q *uint64, b0, b1, b2, b3 int) (group int, masks uint32)

//go:noescape
func tileW4(slab *uint64, groups int, q *uint64, b0, b1, b2, b3 int) (group int, masks uint32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// laneVector maps a primitive's mask lane to the vector of the group whose
// distance it holds, per stride: the pair and quad reduces interleave the
// vectors of each eight-vector half.
var laneVector = [5][simdGroup]uint8{
	1: {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	2: {0, 4, 1, 5, 2, 6, 3, 7, 8, 12, 9, 13, 10, 14, 11, 15},
	4: {0, 2, 1, 3, 4, 6, 5, 7, 8, 10, 9, 11, 12, 14, 13, 15},
}

func init() {
	if hasAVX512VPOPCNTDQ() {
		simdScanBlock = scanBlockAVX512
		simdScanTile = scanTileAVX512
	}
}

// hasAVX512VPOPCNTDQ reports whether the CPU implements AVX512F and
// AVX512_VPOPCNTDQ and the OS saves the opmask and ZMM state across context
// switches (XCR0 bits 1, 2, 5, 6, 7). Those two CPUID bits cover every
// instruction of kernel_amd64.s.
func hasAVX512VPOPCNTDQ() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	const zmmState = 0xe6
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	const avx512f, vpopcntdq = 1 << 16, 1 << 14
	return ebx7&avx512f != 0 && ecx7&vpopcntdq != 0
}

// scanBlockAVX512 is ScanBlock over the single-query primitive. The
// assembly finds the next group with a lane at or under the bound and says
// which lanes; offerLanes scores just those exactly and Offers them. The
// bound handed to the assembly is read at the group it starts from and
// only tightens, so a stale one admits a superset, and the top-k under
// (Dist, ID) does not depend on the order of Offers.
func scanBlockAVX512(t *TopK, slab []uint64, wordsPV int, qw []uint64, baseID, n int) {
	i := fillHeap(t, slab, wordsPV, qw, baseID, n)
	order := &laneVector[wordsPV]
	for groups := (n - i) / simdGroup; groups > 0; groups = (n - i) / simdGroup {
		bound := t.bound(baseID + i)
		if bound < 0 {
			return // the heap holds k zero-distance vectors with lower IDs
		}
		at := &slab[i*wordsPV]
		var g int
		var lanes uint16
		switch wordsPV {
		case 1:
			g, lanes = maskW1(at, groups, &qw[0], bound)
		case 2:
			g, lanes = maskW2(at, groups, &qw[0], bound)
		default:
			g, lanes = maskW4(at, groups, &qw[0], bound)
		}
		i += g * simdGroup
		if g == groups {
			break
		}
		offerLanes(t, slab[i*wordsPV:], wordsPV, qw, baseID+i, lanes, order)
		i += simdGroup
	}
	scanBlockPortable(t, slab[i*wordsPV:], wordsPV, qw, baseID+i, n-i)
}

// scanTileAVX512 is ScanBlock for tileQueries queries over one block in one
// pass of the four-query primitive. Each heap is filled on its own first;
// the tile starts where the last fill ended and the others catch up to it
// alone. Every bound is re-read at each group the tile starts from; a query
// whose bound falls below 0 can gain nothing more from the block, and its
// slot compares against -1 (never a hit) until the tile ends.
func scanTileAVX512(ts []TopK, slab []uint64, wordsPV int, qws [][]uint64, baseID, n int) {
	ts, qws = ts[:tileQueries], qws[:tileQueries]
	var filled [tileQueries]int
	i := 0
	for j := range ts {
		checkBlock(slab, wordsPV, qws[j], n)
		filled[j] = fillHeap(&ts[j], slab, wordsPV, qws[j], baseID, n)
		i = max(i, filled[j])
	}
	for j, f := range filled {
		if f < i {
			ScanBlock(&ts[j], slab[f*wordsPV:], wordsPV, qws[j], baseID+f, i-f)
		}
	}
	var q [tileQueries * 4]uint64 // query-major; 4 words is the widest stride
	for j, qw := range qws {
		copy(q[j*wordsPV:(j+1)*wordsPV], qw)
	}
	order := &laneVector[wordsPV]
	for groups := (n - i) / simdGroup; groups > 0; groups = (n - i) / simdGroup {
		var b [tileQueries]int
		live := false
		for j := range ts {
			b[j] = ts[j].bound(baseID + i)
			live = live || b[j] >= 0
		}
		if !live {
			return
		}
		at := &slab[i*wordsPV]
		var g int
		var masks uint32
		switch wordsPV {
		case 1:
			g, masks = tileW1(at, groups, &q[0], b[0], b[1], b[2], b[3])
		case 2:
			g, masks = tileW2(at, groups, &q[0], b[0], b[1], b[2], b[3])
		default:
			g, masks = tileW4(at, groups, &q[0], b[0], b[1], b[2], b[3])
		}
		i += g * simdGroup
		if g == groups {
			break
		}
		for j := range ts {
			if m := uint16(uint8(masks >> (8 * j))); m != 0 {
				offerLanes(&ts[j], slab[i*wordsPV:], wordsPV, qws[j], baseID+i, m|m<<8, order)
			}
		}
		i += simdGroup
	}
	for j := range ts {
		scanBlockPortable(&ts[j], slab[i*wordsPV:], wordsPV, qws[j], baseID+i, n-i)
	}
}
