package index

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/stats"
)

// clusteredDataset plants clusters so approximate indexes have structure to
// find: centers with small-radius perturbations.
func clusteredDataset(rng *stats.RNG, centers, perCenter, dim, radius int) *bitvec.Dataset {
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

func buildAll(t *testing.T, ds *bitvec.Dataset, leaf int) map[string]Index {
	t.Helper()
	rng := stats.NewRNG(42)
	kd, err := BuildKDForest(ds, DefaultKDForestConfig(leaf), rng)
	if err != nil {
		t.Fatal(err)
	}
	km, err := BuildKMeansTree(ds, DefaultKMeansConfig(leaf), rng)
	if err != nil {
		t.Fatal(err)
	}
	lsh, err := BuildLSH(ds, DefaultLSHConfig(ds.Len(), leaf), rng)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Index{"kd": kd, "kmeans": km, "lsh": lsh}
}

func TestIndexesCoverAllVectors(t *testing.T) {
	rng := stats.NewRNG(7)
	ds := clusteredDataset(rng, 8, 32, 64, 4)
	for name, idx := range buildAll(t, ds, 16) {
		if idx.NumBuckets() == 0 {
			t.Errorf("%s: no buckets", name)
		}
		// Every vector must be findable when used as its own query with
		// enough probes: recall of the exact nearest neighbor (itself).
		misses := 0
		for i := 0; i < ds.Len(); i += 7 {
			got, _ := Search(ds, idx, ds.At(i), 1, 64, nil)
			if len(got) == 0 || got[0].Dist != 0 {
				misses++
			}
		}
		if misses > 0 {
			t.Errorf("%s: %d self-queries missed their own vector", name, misses)
		}
	}
}

func TestSearchReturnsSortedSubset(t *testing.T) {
	rng := stats.NewRNG(21)
	ds := clusteredDataset(rng, 6, 40, 48, 3)
	q := bitvec.Random(rng, 48)
	for name, idx := range buildAll(t, ds, 20) {
		got, scanned := Search(ds, idx, q, 5, 8, nil)
		if scanned == 0 {
			t.Errorf("%s: scanned nothing", name)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Less(got[i-1]) {
				t.Errorf("%s: results out of order: %v", name, got)
			}
		}
		// Distances must be honest.
		for _, n := range got {
			if n.Dist != ds.Hamming(n.ID, q) {
				t.Errorf("%s: reported distance %d, actual %d", name, n.Dist, ds.Hamming(n.ID, q))
			}
		}
	}
}

// TestSearchExcludesDead: leaving IDs out is the same as over-fetching by
// their count and filtering them, and the dead candidates still count as
// scanned.
func TestSearchExcludesDead(t *testing.T) {
	rng := stats.NewRNG(5)
	ds := clusteredDataset(rng, 6, 40, 48, 3)
	var dead bitvec.Bitset
	deadN := 0
	for id := 0; id < ds.Len(); id += 3 {
		dead = dead.Add(id, ds.Len())
		deadN++
	}
	for name, idx := range buildAll(t, ds, 20) {
		for qi := 0; qi < 10; qi++ {
			q := ds.At(rng.Intn(ds.Len()))
			for _, k := range []int{1, 5, ds.Len()} {
				got, scanned := Search(ds, idx, q, k, 8, dead)
				all, want := Search(ds, idx, q, k+deadN, 8, nil)
				if scanned != want {
					t.Fatalf("%s k=%d: scanned %d, %d without exclusion", name, k, scanned, want)
				}
				var kept []knn.Neighbor
				for _, n := range all {
					if !dead.Has(n.ID) && len(kept) < k {
						kept = append(kept, n)
					}
				}
				if len(got) != len(kept) {
					t.Fatalf("%s k=%d: %d results, want %d", name, k, len(got), len(kept))
				}
				for i := range kept {
					if got[i] != kept[i] {
						t.Fatalf("%s k=%d rank %d: got %v, want %v", name, k, i, got[i], kept[i])
					}
				}
			}
		}
	}
}

func TestRecallImprovesWithProbes(t *testing.T) {
	rng := stats.NewRNG(99)
	ds := clusteredDataset(rng, 10, 50, 64, 4)
	queries := make([]bitvec.Vector, 30)
	for i := range queries {
		base := ds.At(rng.Intn(ds.Len())).Clone()
		base.Flip(rng.Intn(64))
		queries[i] = base
	}
	idx := buildAll(t, ds, 25)["lsh"]
	avgRecall := func(probes int) float64 {
		total := 0.0
		for _, q := range queries {
			exact := knn.Linear(ds, q, 4)
			got, _ := Search(ds, idx, q, 4, probes, nil)
			total += Recall(got, exact)
		}
		return total / float64(len(queries))
	}
	lo, hi := avgRecall(1), avgRecall(40)
	if hi < lo {
		t.Errorf("recall decreased with more probes: %v -> %v", lo, hi)
	}
	if hi < 0.5 {
		t.Errorf("multi-probe recall = %v, want >= 0.5 on clustered data", hi)
	}
}

func TestRecallMetric(t *testing.T) {
	exact := []knn.Neighbor{{ID: 1, Dist: 0}, {ID: 2, Dist: 1}, {ID: 3, Dist: 2}}
	got := []knn.Neighbor{{ID: 1, Dist: 0}, {ID: 9, Dist: 1}, {ID: 3, Dist: 2}}
	if r := Recall(got, exact); r < 0.66 || r > 0.67 {
		t.Errorf("Recall = %v, want 2/3", r)
	}
	if r := Recall(nil, nil); r != 1 {
		t.Errorf("Recall of empty exact = %v, want 1", r)
	}
}

func TestKDForestBucketsBounded(t *testing.T) {
	rng := stats.NewRNG(3)
	ds := bitvec.RandomDataset(rng, 300, 32)
	kd, err := BuildKDForest(ds, KDForestConfig{Trees: 4, LeafSize: 20, TopDims: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	q := bitvec.Random(rng, 32)
	buckets := kd.Buckets(q, 0)
	if len(buckets) != 4 {
		t.Errorf("got %d buckets, want one per tree", len(buckets))
	}
	if kd.TraversalCost(q) == 0 {
		t.Error("zero traversal cost on a 300-vector forest")
	}
	if got := kd.Buckets(q, 2); len(got) != 2 {
		t.Errorf("maxProbes=2 returned %d buckets", len(got))
	}
}

func TestKMeansTraversalCostsDistances(t *testing.T) {
	rng := stats.NewRNG(4)
	ds := bitvec.RandomDataset(rng, 400, 32)
	km, err := BuildKMeansTree(ds, DefaultKMeansConfig(30), rng)
	if err != nil {
		t.Fatal(err)
	}
	q := bitvec.Random(rng, 32)
	// §II-A: k-means traversal pays a distance calculation per centroid per
	// level — must be nonzero and larger than a kd-tree's bit compares.
	if km.TraversalCost(q) < 2 {
		t.Errorf("k-means traversal cost = %d, want >= branching", km.TraversalCost(q))
	}
}

func TestLSHProbesPerQuery(t *testing.T) {
	rng := stats.NewRNG(5)
	ds := bitvec.RandomDataset(rng, 256, 64)
	lsh, err := BuildLSH(ds, LSHConfig{Tables: 4, Bits: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := lsh.ProbesPerQuery(); got != 4*(1+4) {
		t.Errorf("ProbesPerQuery = %d, want 20", got)
	}
}

func TestLSHAlwaysReturnsABucket(t *testing.T) {
	rng := stats.NewRNG(6)
	ds := bitvec.RandomDataset(rng, 64, 32)
	lsh, err := BuildLSH(ds, LSHConfig{Tables: 2, Bits: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Adversarial query far from everything still yields candidates.
	for trial := 0; trial < 20; trial++ {
		q := bitvec.Random(rng, 32)
		if buckets := lsh.Buckets(q, 64); len(buckets) == 0 {
			t.Fatal("LSH returned no buckets")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	rng := stats.NewRNG(8)
	ds := bitvec.RandomDataset(rng, 10, 16)
	if _, err := BuildKDForest(ds, KDForestConfig{Trees: 0, LeafSize: 4}, rng); err == nil {
		t.Error("0 trees accepted")
	}
	if _, err := BuildKMeansTree(ds, KMeansConfig{Branching: 1, LeafSize: 4}, rng); err == nil {
		t.Error("branching 1 accepted")
	}
	if _, err := BuildLSH(ds, LSHConfig{Tables: 1, Bits: 64}, rng); err == nil {
		t.Error("hash width > dim accepted")
	}
}

func TestDefaultLSHConfigTargetsBucketSize(t *testing.T) {
	cfg := DefaultLSHConfig(1<<20, 512)
	// 2^20 / 2^11 = 512.
	if cfg.Bits != 11 {
		t.Errorf("Bits = %d, want 11", cfg.Bits)
	}
}
