// Package index implements the approximate-kNN spatial indexing structures
// the paper benchmarks in Table V (§II-A, §III-D): randomized kd-trees,
// hierarchical k-means trees, and (multi-probe) locality sensitive hashing,
// all operating on binary codes under Hamming distance.
//
// Following §III-D, index traversal happens on the host while bucket scans
// are offloaded: an Index maps a query to candidate buckets whose contents
// are then scanned exactly (on the CPU baselines here, or on the AP via the
// partial-reconfiguration engine). Bucket size is naturally matched to one
// AP board configuration.
package index

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/knn"
)

// Index maps queries to candidate buckets of dataset vector IDs.
type Index interface {
	// Buckets returns the candidate buckets for q, nearest-first, up to
	// maxProbes buckets. Implementations must return at least one bucket
	// for any query when the index is non-empty.
	Buckets(q bitvec.Vector, maxProbes int) [][]int
	// NumBuckets returns the total number of leaf buckets.
	NumBuckets() int
}

// Search scans the candidate buckets of idx exactly and returns the k best
// neighbors found, (Dist, ID)-sorted, leaving out the IDs in dead (nil
// leaves out none). It also reports how many candidate vectors were
// scanned, the quantity the §V-B analytical model charges; a dead candidate
// counts, since its bucket is scanned whole.
func Search(ds *bitvec.Dataset, idx Index, q bitvec.Vector, k, maxProbes int, dead bitvec.Bitset) ([]knn.Neighbor, int) {
	if k <= 0 {
		panic(fmt.Sprintf("index: k must be positive, got %d", k))
	}
	scanned := 0
	seen := map[int]bool{}
	var best []knn.Neighbor
	for _, bucket := range idx.Buckets(q, maxProbes) {
		var local []knn.Neighbor
		for _, id := range bucket {
			if seen[id] {
				continue
			}
			seen[id] = true
			scanned++
			if dead.Has(id) {
				continue
			}
			local = append(local, knn.Neighbor{ID: id, Dist: ds.Hamming(id, q)})
		}
		knn.SortNeighbors(local)
		if len(local) > k {
			local = local[:k]
		}
		best = knn.MergeTopK(best, local, k)
	}
	return best, scanned
}

// Recall returns |got ∩ exact| / |exact|, the standard recall@k metric for
// approximate search quality.
func Recall(got, exact []knn.Neighbor) float64 {
	if len(exact) == 0 {
		return 1
	}
	ids := map[int]bool{}
	for _, n := range got {
		ids[n.ID] = true
	}
	hit := 0
	for _, n := range exact {
		if ids[n.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// varianceOrder returns dimension indices sorted by decreasing bit variance
// (p*(1-p) is maximal at p=0.5, so ordering by |p-0.5| ascending matches
// FLANN's highest-variance-dimension heuristic for binary data).
func varianceOrder(ds *bitvec.Dataset, ids []int) []int {
	dim := ds.Dim()
	ones := make([]int, dim)
	for _, id := range ids {
		v := ds.At(id)
		for b := 0; b < dim; b++ {
			if v.Bit(b) {
				ones[b]++
			}
		}
	}
	order := make([]int, dim)
	for i := range order {
		order[i] = i
	}
	n := float64(len(ids))
	score := func(b int) float64 {
		p := float64(ones[b]) / n
		return p * (1 - p)
	}
	sort.SliceStable(order, func(a, b int) bool { return score(order[a]) > score(order[b]) })
	return order
}
