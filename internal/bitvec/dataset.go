package bitvec

import (
	"fmt"

	"repro/internal/stats"
)

// Dataset is a collection of equal-dimensionality binary vectors stored
// contiguously, the in-memory layout the scan kernels stream through. Index
// positions double as the vector IDs the automata reporting states return.
type Dataset struct {
	dim     int
	wordsPV int // words per vector
	words   []uint64
	n       int
}

// NewDataset returns an empty dataset for vectors of the given dimensionality.
func NewDataset(dim int) *Dataset {
	if dim <= 0 {
		panic(fmt.Sprintf("bitvec: non-positive dimensionality %d", dim))
	}
	return &Dataset{dim: dim, wordsPV: WordsFor(dim)}
}

// RandomDataset returns a dataset of n independent uniform vectors.
func RandomDataset(rng *stats.RNG, n, dim int) *Dataset {
	ds := NewDataset(dim)
	ds.Grow(n)
	for i := 0; i < n; i++ {
		ds.Append(Random(rng, dim))
	}
	return ds
}

// Dim returns the vector dimensionality.
func (ds *Dataset) Dim() int { return ds.dim }

// Len returns the number of vectors.
func (ds *Dataset) Len() int { return ds.n }

// Append adds a vector and returns its ID. It panics on a dimensionality
// mismatch.
func (ds *Dataset) Append(v Vector) int {
	if v.Dim() != ds.dim {
		panic(fmt.Sprintf("bitvec: dataset dim %d, vector dim %d", ds.dim, v.Dim()))
	}
	ds.words = append(ds.words, v.Words()...)
	id := ds.n
	ds.n++
	return id
}

// Grow reserves room for n more vectors, so that the Appends that follow do
// not reallocate.
func (ds *Dataset) Grow(n int) {
	if need := (ds.n + n) * ds.wordsPV; need > cap(ds.words) {
		words := make([]uint64, len(ds.words), need)
		copy(words, ds.words)
		ds.words = words
	}
}

// AppendWords adds len(words)/WordsPerVector() vectors from their packed
// words — a run of another dataset's slab, copied at once. It panics when
// words is not a whole number of vectors; the words must come from vectors
// of this dimensionality (padding bits zero).
func (ds *Dataset) AppendWords(words []uint64) {
	if len(words)%ds.wordsPV != 0 {
		panic(fmt.Sprintf("bitvec: %d words is not a multiple of the %d-word stride", len(words), ds.wordsPV))
	}
	ds.words = append(ds.words, words...)
	ds.n += len(words) / ds.wordsPV
}

// At returns vector i without copying; the returned vector aliases dataset
// storage and must not be mutated. Append rewrites the dataset's header, so
// At must not race with an Append to the same dataset. To read while another
// goroutine appends, read a snapshot: a Slice(0, Len()) taken between
// appends stays valid and unchanged as the dataset grows (see Slice).
func (ds *Dataset) At(i int) Vector {
	if i < 0 || i >= ds.n {
		panic(fmt.Sprintf("bitvec: dataset index %d out of range [0,%d)", i, ds.n))
	}
	return Vector{dim: ds.dim, words: ds.words[i*ds.wordsPV : (i+1)*ds.wordsPV]}
}

// WordsAt returns the packed words of vector i for kernel use.
func (ds *Dataset) WordsAt(i int) []uint64 {
	return ds.words[i*ds.wordsPV : (i+1)*ds.wordsPV]
}

// Words returns the packed backing words of all vectors as one contiguous
// slab — vector i occupies words [i*WordsPerVector(), (i+1)*WordsPerVector()).
// The blocked scan kernel streams this directly; callers must not mutate it,
// and (like At) must not hold it across a concurrent Append.
func (ds *Dataset) Words() []uint64 {
	return ds.words[:ds.n*ds.wordsPV]
}

// WordsPerVector returns the stride of the packed slab: the number of 64-bit
// words each vector occupies, WordsFor(Dim()).
func (ds *Dataset) WordsPerVector() int { return ds.wordsPV }

// Slice returns a new dataset sharing storage with vectors [lo, hi). Taken
// while no Append runs, it is a snapshot of those vectors: Append writes only
// past the dataset's end, and a reallocation copies the words to a new array
// and leaves the old one as it was, so the slice's vectors never change while
// the dataset it came from keeps growing. A slice is only read: appending to
// it would write into the parent's storage past hi.
func (ds *Dataset) Slice(lo, hi int) *Dataset {
	if lo < 0 || hi > ds.n || lo > hi {
		panic(fmt.Sprintf("bitvec: slice [%d,%d) out of range [0,%d)", lo, hi, ds.n))
	}
	return &Dataset{
		dim:     ds.dim,
		wordsPV: ds.wordsPV,
		words:   ds.words[lo*ds.wordsPV : hi*ds.wordsPV],
		n:       hi - lo,
	}
}

// Subset returns a new dataset containing copies of the vectors at ids.
func (ds *Dataset) Subset(ids []int) *Dataset {
	out := NewDataset(ds.dim)
	for _, id := range ids {
		out.Append(ds.At(id))
	}
	return out
}

// Hamming returns the Hamming distance between vector i and q.
func (ds *Dataset) Hamming(i int, q Vector) int {
	return ds.At(i).Hamming(q)
}

// BytesEncoded returns the total number of encoded data bytes, the figure the
// paper reports as "128 Kb of encoded data per board configuration" (§V-A).
// Each vector is accounted at its own byte-rounded size — ceil(dim/8) — so
// dimensionalities that are not byte multiples are not under-reported (a
// dim=12 vector encodes 2 bytes, not 1).
func (ds *Dataset) BytesEncoded() int {
	return ds.n * ((ds.dim + 7) / 8)
}
