// Package apknn is the public API of this reproduction of "Similarity Search
// on Automata Processors" (Lee et al., IPDPS 2017): k-nearest-neighbor
// similarity search over binary codes executed as nondeterministic finite
// automata on a simulated Micron Automata Processor, compared against the
// paper's CPU, GPU, FPGA and approximate-indexing baselines.
//
// Every compute platform the paper evaluates is a registered Backend,
// selected through functional options on Open:
//
//	ds := apknn.RandomDataset(seed, n, dim)
//	idx, err := apknn.Open(ds,
//		apknn.WithBackend(apknn.AP),
//		apknn.WithBoards(4),
//		apknn.WithGeneration(apknn.Gen1))
//	results, err := idx.Search(ctx, queries, k)
//
// Search takes one batch of queries and a context.Context whose
// cancellation aborts in-flight board work; failures are typed sentinel errors (ErrDimMismatch,
// ErrEmptyDataset, ErrBadK, ErrCanceled, ErrNotFound) matched with
// errors.Is; Stats returns a serving snapshot. OpenLive returns a mutable
// index instead: Insert/Delete apply immediately through a delta segment
// and tombstone set, and a background compactor folds the churn into fresh
// base compilations.
//
// See README.md for the system inventory, the backend guide, and the
// paper-vs-reproduced audit of the evaluation tables.
package apknn

import (
	"context"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/index"
	"repro/internal/knn"
	"repro/internal/quantize"
	"repro/internal/stats"
)

// Vector is a packed binary feature vector.
type Vector = bitvec.Vector

// Dataset is a collection of equal-dimensionality vectors.
type Dataset = bitvec.Dataset

// Neighbor is one search result: dataset ID and Hamming distance.
type Neighbor = knn.Neighbor

// Generation selects the AP hardware generation being modeled. The zero
// value means Gen2, the sensible default for new work.
type Generation int

const (
	// Gen1 is the evaluated current-generation board (45 ms reconfiguration).
	Gen1 Generation = 1
	// Gen2 is the projected board with ~100x faster reconfiguration.
	Gen2 Generation = 2
)

// ExactSearch is the CPU reference: an exact linear scan through the blocked
// Hamming kernel on up to workers cores (workers < 1 scans serially). It
// panics on invalid arguments (k <= 0 or a query of the wrong
// dimensionality) — in the calling goroutine, where a recover can catch it,
// never inside a worker goroutine. Callers handling untrusted input should
// search an Index, which returns ErrBadK/ErrDimMismatch instead.
func ExactSearch(ds *Dataset, queries []Vector, k, workers int) [][]Neighbor {
	out, err := knn.ScanBatch(context.Background(), ds, queries, k, knn.ScanConfig{Workers: max(workers, 1)})
	if err != nil {
		panic(fmt.Sprintf("apknn.ExactSearch: %v", err))
	}
	return out
}

// Recall returns |got ∩ exact| / |exact| by vector ID.
func Recall(got, exact []Neighbor) float64 { return index.Recall(got, exact) }

// RandomDataset generates n uniform binary vectors of the given
// dimensionality, deterministically from seed.
func RandomDataset(seed uint64, n, dim int) *Dataset {
	return bitvec.RandomDataset(stats.NewRNG(seed), n, dim)
}

// RandomQueries generates q uniform queries.
func RandomQueries(seed uint64, q, dim int) []Vector {
	rng := stats.NewRNG(seed)
	out := make([]Vector, q)
	for i := range out {
		out[i] = bitvec.Random(rng, dim)
	}
	return out
}

// QuantizeITQ trains Iterative Quantization on the real-valued training
// vectors and encodes data into a binary dataset of the given code length —
// the offline pipeline the paper assumes (§II-A).
func QuantizeITQ(training, data [][]float64, bits int, seed uint64) (*Dataset, *quantize.ITQ, error) {
	itq, err := quantize.TrainITQ(training, quantize.ITQConfig{Bits: bits}, stats.NewRNG(seed))
	if err != nil {
		return nil, nil, err
	}
	return quantize.EncodeDataset(itq, data), itq, nil
}

// ParseVector parses a "1011"-style bit string.
func ParseVector(s string) (Vector, error) {
	return bitvec.ParseBits(s)
}

// String describes the modeled hardware for display purposes.
func (g Generation) String() string {
	switch g {
	case Gen1:
		return "AP Gen 1"
	case Gen2, 0:
		return "AP Gen 2"
	default:
		return fmt.Sprintf("Generation(%d)", int(g))
	}
}
