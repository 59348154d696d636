//go:build amd64 && !purego

package knn

// firstHitW1/W2/W4 are the AVX-512 inner primitive for strides of 1, 2 and
// 4 words per vector. Each scores `groups` consecutive groups of simdGroup
// vectors starting at slab against the wordsPV query words at q — VPXORQ,
// VPOPCNTQ, an in-register pair/quad reduce, VPCMPUQ against bound — and
// returns the index of the first group holding a vector with distance
// <= bound, or groups when none does. They read exactly
// groups*simdGroup*wordsPV words of slab (no alignment requirement) and
// wordsPV words of q.
//
//go:noescape
func firstHitW1(slab *uint64, groups int, q *uint64, bound uint64) int

//go:noescape
func firstHitW2(slab *uint64, groups int, q *uint64, bound uint64) int

//go:noescape
func firstHitW4(slab *uint64, groups int, q *uint64, bound uint64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func init() {
	if hasAVX512VPOPCNTDQ() {
		simdScanBlock = scanBlockAVX512
	}
}

// hasAVX512VPOPCNTDQ reports whether the CPU implements AVX512F and
// AVX512_VPOPCNTDQ and the OS saves the opmask and ZMM state across context
// switches (XCR0 bits 1, 2, 5, 6, 7).
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

// scanBlockAVX512 is ScanBlock over the SIMD primitive. The assembly only
// finds groups that may hold a candidate; those are re-scored and Offered by
// the portable loop, so the heap sees the same accepted candidates in the
// same order as a portable scan. The bound handed to the assembly is read
// before the call and only tightens, so a stale one admits a superset.
func scanBlockAVX512(t *TopK, slab []uint64, wordsPV int, qw []uint64, baseID, n int) {
	i := 0
	for i < n && t.Len() < t.k {
		// Until the heap is full every vector is retained — every one t
		// does not refuse, that is, so a pass may leave slots open. Passes
		// are no shorter than a SIMD group: a long run of refused vectors
		// must not cost a call per open slot.
		fill := min(max(t.k-t.Len(), simdGroup), n-i)
		scanBlockPortable(t, slab[i*wordsPV:], wordsPV, qw, baseID+i, fill)
		i += fill
	}
	for groups := (n - i) / simdGroup; groups > 0; groups = (n - i) / simdGroup {
		bound := t.bound(baseID + i)
		if bound < 0 {
			return // the heap holds k zero-distance vectors with lower IDs
		}
		at := &slab[i*wordsPV]
		var g int
		switch wordsPV {
		case 1:
			g = firstHitW1(at, groups, &qw[0], uint64(bound))
		case 2:
			g = firstHitW2(at, groups, &qw[0], uint64(bound))
		default:
			g = firstHitW4(at, groups, &qw[0], uint64(bound))
		}
		i += g * simdGroup
		if g == groups {
			break
		}
		scanBlockPortable(t, slab[i*wordsPV:], wordsPV, qw, baseID+i, simdGroup)
		i += simdGroup
	}
	scanBlockPortable(t, slab[i*wordsPV:], wordsPV, qw, baseID+i, n-i)
}
