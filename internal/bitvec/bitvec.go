// Package bitvec implements packed binary feature vectors and the Hamming
// distance kernels every other package builds on.
//
// The paper's kNN pipeline operates on binary codes produced by offline
// quantization (e.g. ITQ, §II-A): a feature vector of dimensionality d is a
// string of d bits. Vector represents such a code packed into 64-bit words so
// that Hamming distance reduces to XOR + POPCOUNT, exactly the primitive the
// CPU, GPU and FPGA baselines in the paper use.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/stats"
)

// Vector is a packed binary vector of fixed dimensionality. The dimensionality
// is carried explicitly because it need not be a multiple of 64; bits beyond
// Dim in the last word are always zero (the canonical form all constructors
// and mutators maintain).
type Vector struct {
	dim   int
	words []uint64
}

// WordsFor returns the number of 64-bit words needed to store dim bits.
func WordsFor(dim int) int {
	return (dim + 63) / 64
}

// New returns a zero vector of the given dimensionality. It panics if dim is
// not positive.
func New(dim int) Vector {
	if dim <= 0 {
		panic(fmt.Sprintf("bitvec: non-positive dimensionality %d", dim))
	}
	return Vector{dim: dim, words: make([]uint64, WordsFor(dim))}
}

// ParseBits builds a vector from a string of '0' and '1' runes, ignoring
// spaces. It returns an error on any other rune or an empty string.
func ParseBits(s string) (Vector, error) {
	clean := strings.ReplaceAll(s, " ", "")
	if clean == "" {
		return Vector{}, fmt.Errorf("bitvec: empty bit string")
	}
	v := New(len(clean))
	for i, r := range clean {
		switch r {
		case '0':
		case '1':
			v.Set(i, true)
		default:
			return Vector{}, fmt.Errorf("bitvec: invalid bit %q at position %d", r, i)
		}
	}
	return v, nil
}

// FromWords builds a vector of the given dimensionality from packed 64-bit
// words, copying them into fresh storage and masking the tail back to
// canonical form. It panics if words is shorter than WordsFor(dim) — packed
// storage of the wrong shape is a caller bug. The copy-on-read delta
// segment (internal/live) and the binary dataset reader are built on this.
func FromWords(dim int, words []uint64) Vector {
	v := New(dim)
	if len(words) < len(v.words) {
		panic(fmt.Sprintf("bitvec: %d words cannot hold %d bits", len(words), dim))
	}
	copy(v.words, words)
	v.maskTail()
	return v
}

// Random returns a vector with independent uniform bits drawn from rng.
func Random(rng *stats.RNG, dim int) Vector {
	v := New(dim)
	for i := range v.words {
		v.words[i] = rng.Uint64()
	}
	v.maskTail()
	return v
}

// Dim returns the dimensionality.
func (v Vector) Dim() int { return v.dim }

// Words exposes the packed words for read-only kernel use. Callers must not
// mutate the returned slice.
func (v Vector) Words() []uint64 { return v.words }

// Bit returns bit i.
func (v Vector) Bit(i int) bool {
	if i < 0 || i >= v.dim {
		panic(fmt.Sprintf("bitvec: bit index %d out of range [0,%d)", i, v.dim))
	}
	return v.words[i>>6]>>(uint(i)&63)&1 == 1
}

// Set assigns bit i.
func (v Vector) Set(i int, b bool) {
	if i < 0 || i >= v.dim {
		panic(fmt.Sprintf("bitvec: bit index %d out of range [0,%d)", i, v.dim))
	}
	if b {
		v.words[i>>6] |= 1 << (uint(i) & 63)
	} else {
		v.words[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Flip toggles bit i.
func (v Vector) Flip(i int) {
	v.Set(i, !v.Bit(i))
}

// Clone returns a deep copy.
func (v Vector) Clone() Vector {
	c := Vector{dim: v.dim, words: make([]uint64, len(v.words))}
	copy(c.words, v.words)
	return c
}

// Equal reports whether v and o have the same dimensionality and bits.
func (v Vector) Equal(o Vector) bool {
	if v.dim != o.dim {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits.
func (v Vector) PopCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Hamming returns the Hamming distance between v and o. It panics if the
// dimensionalities differ: distance between incompatible codes is a caller
// bug, not a runtime condition.
func (v Vector) Hamming(o Vector) int {
	if v.dim != o.dim {
		panic(fmt.Sprintf("bitvec: dimensionality mismatch %d vs %d", v.dim, o.dim))
	}
	d := 0
	for i, w := range v.words {
		d += bits.OnesCount64(w ^ o.words[i])
	}
	return d
}

// InvertedHamming returns dim - Hamming(o), the similarity score the paper's
// automata counters accumulate (§III-A).
func (v Vector) InvertedHamming(o Vector) int {
	return v.dim - v.Hamming(o)
}

// String renders the vector as a bit string, most significant dimension last
// (dimension 0 first), grouped in bytes for readability.
func (v Vector) String() string {
	var sb strings.Builder
	for i := 0; i < v.dim; i++ {
		if i > 0 && i%8 == 0 {
			sb.WriteByte(' ')
		}
		if v.Bit(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// maskTail zeroes the bits beyond dim in the last word, restoring canonical
// form after whole-word writes.
func (v Vector) maskTail() {
	if tail := uint(v.dim) & 63; tail != 0 {
		v.words[len(v.words)-1] &= (1 << tail) - 1
	}
}
