package index

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// KDForest is the randomized kd-tree index of §II-A: several trees, each
// splitting on a dimension chosen randomly among the highest-variance
// dimensions, with leaf buckets scanned linearly at query time. On binary
// data a split sends bit-0 vectors left and bit-1 vectors right.
type KDForest struct {
	ds      *bitvec.Dataset
	trees   []*kdNode
	buckets int
}

type kdNode struct {
	dim    int // split dimension; -1 for leaves
	left   *kdNode
	right  *kdNode
	bucket []int // leaf only
}

// KDForestConfig configures construction.
type KDForestConfig struct {
	Trees    int // paper: 4 parallel kd-trees
	LeafSize int
	// TopDims is the pool of highest-variance dimensions the random split
	// choice draws from (FLANN uses 5).
	TopDims int
}

// DefaultKDForestConfig mirrors the paper's setup: 4 trees.
func DefaultKDForestConfig(leafSize int) KDForestConfig {
	return KDForestConfig{Trees: 4, LeafSize: leafSize, TopDims: 5}
}

// BuildKDForest indexes ds.
func BuildKDForest(ds *bitvec.Dataset, cfg KDForestConfig, rng *stats.RNG) (*KDForest, error) {
	if cfg.Trees <= 0 || cfg.LeafSize <= 0 {
		return nil, fmt.Errorf("index: kd-forest needs positive trees (%d) and leaf size (%d)", cfg.Trees, cfg.LeafSize)
	}
	if cfg.TopDims <= 0 {
		cfg.TopDims = 5
	}
	f := &KDForest{ds: ds}
	all := make([]int, ds.Len())
	for i := range all {
		all[i] = i
	}
	for t := 0; t < cfg.Trees; t++ {
		f.trees = append(f.trees, f.split(all, cfg, rng, 0))
	}
	return f, nil
}

func (f *KDForest) split(ids []int, cfg KDForestConfig, rng *stats.RNG, depth int) *kdNode {
	if len(ids) <= cfg.LeafSize || depth >= f.ds.Dim() {
		bucket := append([]int(nil), ids...)
		f.buckets++
		return &kdNode{dim: -1, bucket: bucket}
	}
	order := varianceOrder(f.ds, ids)
	pool := cfg.TopDims
	if pool > len(order) {
		pool = len(order)
	}
	// Random choice among the top-variance dimensions decorrelates trees.
	splitDim := order[rng.Intn(pool)]
	var left, right []int
	for _, id := range ids {
		if f.ds.At(id).Bit(splitDim) {
			right = append(right, id)
		} else {
			left = append(left, id)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		// Degenerate split (constant bit slipped through): make a leaf.
		bucket := append([]int(nil), ids...)
		f.buckets++
		return &kdNode{dim: -1, bucket: bucket}
	}
	return &kdNode{
		dim:   splitDim,
		left:  f.split(left, cfg, rng, depth+1),
		right: f.split(right, cfg, rng, depth+1),
	}
}

// Buckets descends each tree by the query's bits and returns the leaf
// buckets, one per tree, deduplication left to the caller.
func (f *KDForest) Buckets(q bitvec.Vector, maxProbes int) [][]int {
	var out [][]int
	for _, root := range f.trees {
		if maxProbes > 0 && len(out) >= maxProbes {
			break
		}
		n := root
		for n.dim >= 0 {
			if q.Bit(n.dim) {
				n = n.right
			} else {
				n = n.left
			}
		}
		out = append(out, n.bucket)
	}
	return out
}

// NumBuckets returns the number of leaf buckets across all trees.
func (f *KDForest) NumBuckets() int { return f.buckets }
