// Package workload defines the paper's kNN workloads (Table II) and the
// synthetic data generators that stand in for the proprietary feature
// datasets: word embeddings (d=64), SIFT descriptors (d=128) and TagSpace
// semantic embeddings (d=256), all ITQ-binarized offline, with 4096 queries.
package workload

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// Params is one evaluation workload.
type Params struct {
	Name string
	// Dim is the binary code length (Table II "Dimensionality").
	Dim int
	// K is the number of neighbors (Table II "Neighbors").
	K int
	// Queries is the batch size (§IV-A: "4096 queries").
	Queries int
	// SmallN is the small-dataset size of Table III (one board load).
	SmallN int
	// LargeN is the large-dataset size of Table IV (2^20).
	LargeN int
}

// WordEmbed is kNN-WordEmbed: word-embedding retrieval, d=64, k=2.
func WordEmbed() Params {
	return Params{Name: "WordEmbed", Dim: 64, K: 2, Queries: 4096, SmallN: 1024, LargeN: 1 << 20}
}

// SIFT is kNN-SIFT: image feature matching, d=128, k=4.
func SIFT() Params {
	return Params{Name: "SIFT", Dim: 128, K: 4, Queries: 4096, SmallN: 1024, LargeN: 1 << 20}
}

// TagSpace is kNN-TagSpace: semantic hashtag embeddings, d=256, k=16.
func TagSpace() Params {
	return Params{Name: "TagSpace", Dim: 256, K: 16, Queries: 4096, SmallN: 512, LargeN: 1 << 20}
}

// All returns the three Table II workloads in paper order.
func All() []Params {
	return []Params{WordEmbed(), SIFT(), TagSpace()}
}

// ByName looks a workload up by its Table II name.
func ByName(name string) (Params, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return Params{}, fmt.Errorf("workload: unknown workload %q (want WordEmbed, SIFT or TagSpace)", name)
}

// Uniform draws a dataset of independent uniform bits — the randomized-run
// methodology of Table VI.
func Uniform(rng *stats.RNG, n, dim int) *bitvec.Dataset {
	return bitvec.RandomDataset(rng, n, dim)
}

// Queries draws q uniform query vectors.
func Queries(rng *stats.RNG, q, dim int) []bitvec.Vector {
	out := make([]bitvec.Vector, q)
	for i := range out {
		out[i] = bitvec.Random(rng, dim)
	}
	return out
}

// Clustered plants centers-many clusters of perCenter vectors within the
// given Hamming radius — binary codes with the neighborhood structure real
// ITQ-quantized features exhibit. Vector i belongs to cluster i/perCenter.
func Clustered(rng *stats.RNG, centers, perCenter, dim, radius int) *bitvec.Dataset {
	ds := bitvec.NewDataset(dim)
	for c := 0; c < centers; c++ {
		center := bitvec.Random(rng, dim)
		for i := 0; i < perCenter; i++ {
			v := center.Clone()
			for f := 0; f < radius; f++ {
				v.Flip(rng.Intn(dim))
			}
			ds.Append(v)
		}
	}
	return ds
}

// TieHeavy returns n vectors drawn from a pool of only four distinct ones —
// every distance is shared by about n/4 IDs, so the ID half of the
// (distance, ID) order decides most ranks — with the two vectors either side
// of every multiple of boundary made identical, so ties straddle every
// boundary a partitioned engine could mishandle (board configurations, and
// shards, which are whole configurations).
func TieHeavy(rng *stats.RNG, n, dim, boundary int) *bitvec.Dataset {
	pool := make([]bitvec.Vector, 4)
	for i := range pool {
		pool[i] = bitvec.Random(rng, dim)
	}
	vs := make([]bitvec.Vector, n)
	for i := range vs {
		vs[i] = pool[rng.Intn(len(pool))]
	}
	for b := boundary; b < n; b += boundary {
		vs[b] = vs[b-1]
	}
	ds := bitvec.NewDataset(dim)
	for _, v := range vs {
		ds.Append(v)
	}
	return ds
}

// PlantedQueries derives queries by perturbing random dataset members within
// flips bit flips, so each query has at least one known near neighbor.
func PlantedQueries(rng *stats.RNG, ds *bitvec.Dataset, q, flips int) []bitvec.Vector {
	out := make([]bitvec.Vector, q)
	for i := range out {
		v := ds.At(rng.Intn(ds.Len())).Clone()
		for f := 0; f < flips; f++ {
			v.Flip(rng.Intn(ds.Dim()))
		}
		out[i] = v
	}
	return out
}

// GaussianFeatures generates real-valued feature vectors from a mixture of
// Gaussians — the input side of the ITQ quantization pipeline (§II-A).
// Returned labels identify the mixture component of each vector.
func GaussianFeatures(rng *stats.RNG, clusters, perCluster, dim int, spread float64) (data [][]float64, labels []int) {
	for c := 0; c < clusters; c++ {
		center := make([]float64, dim)
		for j := range center {
			center[j] = rng.NormFloat64() * 4
		}
		for i := 0; i < perCluster; i++ {
			v := make([]float64, dim)
			for j := range v {
				v[j] = center[j] + rng.NormFloat64()*spread
			}
			data = append(data, v)
			labels = append(labels, c)
		}
	}
	return data, labels
}
