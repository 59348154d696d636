// Package knn implements the exact CPU k-nearest-neighbor baselines the
// paper compares against (§IV-C): linear Hamming-distance scans with
// XOR+POPCOUNT, bounded-heap top-k selection, the O(n log n) priority-queue
// sort the paper attributes to von-Neumann architectures (§III-B), and the
// multi-threaded batch driver (kernel.go): data-level parallelism across
// cores with every query of a batch scored per resident block (§II-A), eight
// queries per load of the block where the AVX-512 loop runs (§VI-B's query
// slices multiplexed onto one symbol stream).
package knn

import (
	"container/heap"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/bitvec"
)

func popcount(w uint64) int { return bits.OnesCount64(w) }

// Neighbor is one search result: a dataset vector ID and its Hamming
// distance from the query. Result sets are ordered by (Dist, ID) so that
// ties break deterministically; every implementation in this repository —
// CPU, AP, FPGA, GPU — uses the same order, which makes results directly
// comparable in tests. The JSON tags are the serving tier's wire form.
type Neighbor struct {
	ID   int `json:"id"`
	Dist int `json:"dist"`
}

// Less orders neighbors by distance, then ID.
func (n Neighbor) Less(o Neighbor) bool {
	return n.Dist < o.Dist || (n.Dist == o.Dist && n.ID < o.ID)
}

// SortNeighbors sorts in place by (Dist, ID).
func SortNeighbors(ns []Neighbor) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].Less(ns[j]) })
}

// maxHeap is a bounded max-heap over neighbors: the root is the worst
// retained candidate, evicted when a better one arrives.
type maxHeap []Neighbor

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[j].Less(h[i]) } // max at root
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Linear performs an exact scan of ds for the k nearest neighbors of q,
// using a bounded max-heap: O(n log k) after the O(nd/64) distance kernel.
func Linear(ds *bitvec.Dataset, q bitvec.Vector, k int) []Neighbor {
	if k <= 0 {
		panic(fmt.Sprintf("knn: k must be positive, got %d", k))
	}
	// The heap never holds more than min(k, n) neighbors; capping the
	// capacity keeps a hostile wire-supplied k (e.g. math.MaxInt from a
	// fuzzed /v1/search body) from allocating k+1 slots up front.
	hcap := k
	if n := ds.Len(); hcap > n {
		hcap = n
	}
	h := make(maxHeap, 0, hcap+1)
	qw := q.Words()
	for i := 0; i < ds.Len(); i++ {
		d := hamming(ds.WordsAt(i), qw)
		cand := Neighbor{ID: i, Dist: d}
		if len(h) < k {
			heap.Push(&h, cand)
			continue
		}
		if cand.Less(h[0]) {
			h[0] = cand
			heap.Fix(&h, 0)
		}
	}
	out := []Neighbor(h)
	SortNeighbors(out)
	return out
}

// hamming is the packed-word XOR+POPCOUNT kernel shared by the scans.
func hamming(a, b []uint64) int {
	d := 0
	for i, w := range a {
		d += popcount(w ^ b[i])
	}
	return d
}

// MergeTopK merges two (Dist, ID)-sorted neighbor lists, keeping the k best.
// This is the host-side merge the partial-reconfiguration driver performs
// across board configurations (§III-C). A non-positive k keeps nothing.
func MergeTopK(a, b []Neighbor, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	out := make([]Neighbor, 0, min(k, len(a)+len(b)))
	i, j := 0, 0
	for len(out) < k && (i < len(a) || j < len(b)) {
		switch {
		case i >= len(a):
			out = append(out, b[j])
			j++
		case j >= len(b):
			out = append(out, a[i])
			i++
		case a[i].Less(b[j]):
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	return out
}
