package index

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/stats"
)

// KMeansTree is the hierarchical k-means index of §II-A: the dataset is
// recursively partitioned into clusters around Hamming-space centroids
// ("unlike randomized kd-trees, traversing the k-means index requires a
// distance calculation at each node"). Centroids are per-bit majority votes,
// the Hamming-space analogue of the Euclidean mean.
type KMeansTree struct {
	ds      *bitvec.Dataset
	root    *kmNode
	buckets int
}

type kmNode struct {
	centroids []bitvec.Vector
	children  []*kmNode
	bucket    []int // leaf only
}

// KMeansConfig configures construction.
type KMeansConfig struct {
	Branching int // clusters per node (paper-style default 8)
	LeafSize  int // bucket capacity = one AP board configuration
	Iters     int // Lloyd iterations per node
}

// DefaultKMeansConfig mirrors a FLANN-like setup.
func DefaultKMeansConfig(leafSize int) KMeansConfig {
	return KMeansConfig{Branching: 8, LeafSize: leafSize, Iters: 5}
}

// BuildKMeansTree indexes ds.
func BuildKMeansTree(ds *bitvec.Dataset, cfg KMeansConfig, rng *stats.RNG) (*KMeansTree, error) {
	if cfg.Branching < 2 || cfg.LeafSize <= 0 {
		return nil, fmt.Errorf("index: k-means tree needs branching >= 2 (%d) and positive leaf size (%d)",
			cfg.Branching, cfg.LeafSize)
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 5
	}
	t := &KMeansTree{ds: ds}
	all := make([]int, ds.Len())
	for i := range all {
		all[i] = i
	}
	t.root = t.build(all, cfg, rng)
	return t, nil
}

func (t *KMeansTree) build(ids []int, cfg KMeansConfig, rng *stats.RNG) *kmNode {
	if len(ids) <= cfg.LeafSize {
		t.buckets++
		return &kmNode{bucket: append([]int(nil), ids...)}
	}
	centroids, assign := t.lloyd(ids, cfg, rng)
	// Degenerate clustering (all points identical): cut to a leaf.
	nonEmpty := 0
	for _, members := range assign {
		if len(members) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.buckets++
		return &kmNode{bucket: append([]int(nil), ids...)}
	}
	node := &kmNode{}
	for c, members := range assign {
		if len(members) == 0 {
			continue
		}
		node.centroids = append(node.centroids, centroids[c])
		node.children = append(node.children, t.build(members, cfg, rng))
	}
	return node
}

// lloyd runs k-means with Hamming majority centroids.
func (t *KMeansTree) lloyd(ids []int, cfg KMeansConfig, rng *stats.RNG) ([]bitvec.Vector, [][]int) {
	k := cfg.Branching
	if k > len(ids) {
		k = len(ids)
	}
	// Seed centroids with distinct random members.
	perm := rng.Perm(len(ids))
	centroids := make([]bitvec.Vector, k)
	for i := 0; i < k; i++ {
		centroids[i] = t.ds.At(ids[perm[i]]).Clone()
	}
	var assign [][]int
	for iter := 0; iter < cfg.Iters; iter++ {
		assign = make([][]int, k)
		for _, id := range ids {
			best, bestD := 0, t.ds.Dim()+1
			for c, cent := range centroids {
				if d := t.ds.At(id).Hamming(cent); d < bestD {
					best, bestD = c, d
				}
			}
			assign[best] = append(assign[best], id)
		}
		for c, members := range assign {
			if len(members) == 0 {
				continue
			}
			centroids[c] = majorityCentroid(t.ds, members)
		}
	}
	return centroids, assign
}

// majorityCentroid returns the per-bit majority vote of the members, the
// Hamming-distance minimizer.
func majorityCentroid(ds *bitvec.Dataset, ids []int) bitvec.Vector {
	dim := ds.Dim()
	out := bitvec.New(dim)
	for b := 0; b < dim; b++ {
		ones := 0
		for _, id := range ids {
			if ds.At(id).Bit(b) {
				ones++
			}
		}
		if 2*ones > len(ids) {
			out.Set(b, true)
		}
	}
	return out
}

// Buckets descends to the leaf whose centroid chain is nearest the query;
// maxProbes > 1 additionally explores the runner-up children at the root.
func (t *KMeansTree) Buckets(q bitvec.Vector, maxProbes int) [][]int {
	if maxProbes <= 0 {
		maxProbes = 1
	}
	var out [][]int
	var descend func(n *kmNode, probes int)
	descend = func(n *kmNode, probes int) {
		if n.bucket != nil || len(n.children) == 0 {
			out = append(out, n.bucket)
			return
		}
		order := centroidOrder(n, q)
		for i := 0; i < probes && i < len(order); i++ {
			remaining := 1
			if i == 0 {
				remaining = probes - min(probes-1, len(order)-1)
			}
			descend(n.children[order[i]], remaining)
			if len(out) >= probes {
				return
			}
		}
	}
	descend(t.root, maxProbes)
	if len(out) > maxProbes {
		out = out[:maxProbes]
	}
	return out
}

func centroidOrder(n *kmNode, q bitvec.Vector) []int {
	ns := make([]knn.Neighbor, len(n.centroids))
	for i, c := range n.centroids {
		ns[i] = knn.Neighbor{ID: i, Dist: c.Hamming(q)}
	}
	knn.SortNeighbors(ns)
	out := make([]int, len(ns))
	for i, nb := range ns {
		out[i] = nb.ID
	}
	return out
}

// NumBuckets returns the number of leaf buckets.
func (t *KMeansTree) NumBuckets() int { return t.buckets }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
