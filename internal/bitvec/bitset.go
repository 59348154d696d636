package bitvec

import "math/bits"

// Bitset is a set of non-negative positions, one bit each, in 64-bit words —
// the form in which the live index hands its tombstones to the scan kernel.
// Positions past the last word are not in the set, so the nil Bitset is the
// empty set. A published set is shared between readers and never written
// again: With copies; Add is for a set still being built.
type Bitset []uint64

// Has reports whether position i is in the set.
func (s Bitset) Has(i int) bool {
	w := uint(i) >> 6
	return w < uint(len(s)) && s[w]>>(uint(i)&63)&1 != 0
}

// Covers reports whether the set has a bit for every position below n.
func (s Bitset) Covers(n int) bool { return len(s)<<6 >= n }

// Add puts i into s in place, growing it to cover at least n positions, and
// returns the set (like append, the result may have moved).
func (s Bitset) Add(i, n int) Bitset {
	if i >= n {
		n = i + 1
	}
	if words := (n + 63) >> 6; words > len(s) {
		s = append(s, make(Bitset, words-len(s))...)
	}
	s[i>>6] |= 1 << (uint(i) & 63)
	return s
}

// With returns a copy of s that also holds i and covers at least n
// positions; s itself is untouched.
func (s Bitset) With(i, n int) Bitset {
	if i >= n {
		n = i + 1
	}
	words := (n + 63) >> 6
	if words < len(s) {
		words = len(s)
	}
	c := make(Bitset, words)
	copy(c, s)
	c[i>>6] |= 1 << (uint(i) & 63)
	return c
}

// Each calls fn with every position of the set, ascending.
func (s Bitset) Each(fn func(i int)) {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			fn(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// ClearRuns calls fn(lo, hi) for every maximal run [lo, hi) of positions in
// [0, n) that are not in the set, ascending.
func (s Bitset) ClearRuns(n int, fn func(lo, hi int)) {
	for lo := s.next(0, n, false); lo < n; {
		hi := s.next(lo, n, true)
		fn(lo, hi)
		lo = s.next(hi, n, false)
	}
}

// NextClear returns the first position in [from, n) that is not in the set,
// or n when every one is: a run of members is stepped over a word at a time.
func (s Bitset) NextClear(from, n int) int { return s.next(from, n, false) }

// next returns the first position in [from, n) whose membership equals
// member, or n when there is none.
func (s Bitset) next(from, n int, member bool) int {
	for i := from; i < n; {
		w := i >> 6
		if w >= len(s) {
			if member {
				return n
			}
			return i
		}
		word := s[w]
		if !member {
			word = ^word
		}
		if word >>= uint(i) & 63; word != 0 {
			if i += bits.TrailingZeros64(word); i > n {
				return n
			}
			return i
		}
		i = (w + 1) << 6
	}
	return n
}
