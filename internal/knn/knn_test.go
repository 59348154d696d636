package knn

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// refKNN is the simplest possible reference: compute all distances, full
// sort with the shared tie-break.
func refKNN(ds *bitvec.Dataset, q bitvec.Vector, k int) []Neighbor {
	all := make([]Neighbor, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		all[i] = Neighbor{ID: i, Dist: ds.Hamming(i, q)}
	}
	SortNeighbors(all)
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func equalNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLinearSmallKnown(t *testing.T) {
	ds := bitvec.NewDataset(4)
	for _, s := range []string{"1011", "0000", "1001", "1111"} {
		v, err := bitvec.ParseBits(s)
		if err != nil {
			t.Fatal(err)
		}
		ds.Append(v)
	}
	q, _ := bitvec.ParseBits("1001")
	got := Linear(ds, q, 2)
	want := []Neighbor{{ID: 2, Dist: 0}, {ID: 0, Dist: 1}}
	if !equalNeighbors(got, want) {
		t.Errorf("Linear = %v, want %v", got, want)
	}
}

// Property: all exact variants agree with the reference for random data.
func TestVariantsMatchReference(t *testing.T) {
	f := func(seed uint64, rawN uint16, rawK uint8) bool {
		rng := stats.NewRNG(seed)
		n := int(rawN)%200 + 1
		k := int(rawK)%10 + 1
		dim := 64
		ds := bitvec.RandomDataset(rng, n, dim)
		q := bitvec.Random(rng, dim)
		want := refKNN(ds, q, k)
		if !equalNeighbors(Linear(ds, q, k), want) {
			return false
		}
		if !equalNeighbors(LinearFullSort(ds, q, k), want) {
			return false
		}
		if !equalNeighbors(LinearSelect(ds, q, k), want) {
			return false
		}
		scanned, err := Scan(ds, q, k, ScanConfig{Workers: 4})
		if err != nil || !equalNeighbors(scanned, want) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKLargerThanDataset(t *testing.T) {
	rng := stats.NewRNG(9)
	ds := bitvec.RandomDataset(rng, 5, 32)
	q := bitvec.Random(rng, 32)
	for _, impl := range []func(*bitvec.Dataset, bitvec.Vector, int) []Neighbor{
		Linear, LinearFullSort, LinearSelect,
	} {
		got := impl(ds, q, 10)
		if len(got) != 5 {
			t.Errorf("k > n returned %d results, want 5", len(got))
		}
	}
}

func TestLinearPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 did not panic")
		}
	}()
	Linear(bitvec.RandomDataset(stats.NewRNG(1), 4, 8), bitvec.Random(stats.NewRNG(2), 8), 0)
}

func TestMergeTopK(t *testing.T) {
	a := []Neighbor{{1, 1}, {3, 4}, {5, 9}}
	b := []Neighbor{{2, 2}, {4, 4}, {6, 10}}
	got := MergeTopK(a, b, 4)
	want := []Neighbor{{1, 1}, {2, 2}, {3, 4}, {4, 4}}
	if !equalNeighbors(got, want) {
		t.Errorf("MergeTopK = %v, want %v", got, want)
	}
}

func TestMergeTopKShortInputs(t *testing.T) {
	a := []Neighbor{{1, 1}}
	got := MergeTopK(a, nil, 5)
	if !equalNeighbors(got, a) {
		t.Errorf("MergeTopK with nil = %v", got)
	}
	got = MergeTopK(nil, nil, 3)
	if len(got) != 0 {
		t.Errorf("MergeTopK(nil,nil) = %v", got)
	}
}

// Property: MergeTopK over a split equals top-k of the union.
func TestMergeTopKProperty(t *testing.T) {
	f := func(seed uint64, rawSplit uint8, rawK uint8) bool {
		rng := stats.NewRNG(seed)
		n := 60
		k := int(rawK)%12 + 1
		ds := bitvec.RandomDataset(rng, n, 48)
		q := bitvec.Random(rng, 48)
		split := int(rawSplit)%(n-1) + 1
		left := Linear(ds.Slice(0, split), q, k)
		right := Linear(ds.Slice(split, n), q, k)
		for i := range right {
			right[i].ID += split
		}
		return equalNeighbors(MergeTopK(left, right, k), refKNN(ds, q, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBatch(t *testing.T) {
	rng := stats.NewRNG(77)
	ds := bitvec.RandomDataset(rng, 100, 64)
	queries := make([]bitvec.Vector, 9)
	for i := range queries {
		queries[i] = bitvec.Random(rng, 64)
	}
	for _, workers := range []int{1, 4} {
		got, err := ScanBatch(context.Background(), ds, queries, 3, ScanConfig{Workers: workers})
		if err != nil {
			t.Fatalf("ScanBatch(workers=%d): %v", workers, err)
		}
		if len(got) != len(queries) {
			t.Fatalf("ScanBatch returned %d result sets", len(got))
		}
		for i, q := range queries {
			if !equalNeighbors(got[i], refKNN(ds, q, 3)) {
				t.Errorf("workers=%d query %d mismatch", workers, i)
			}
		}
	}
}

func TestTiesBreakByID(t *testing.T) {
	// All-identical dataset: every distance ties; IDs must come back in
	// ascending order.
	ds := bitvec.NewDataset(16)
	v := bitvec.Random(stats.NewRNG(4), 16)
	for i := 0; i < 10; i++ {
		ds.Append(v)
	}
	got := Linear(ds, bitvec.Random(stats.NewRNG(5), 16), 4)
	for i, n := range got {
		if n.ID != i {
			t.Errorf("tie order: result %d has ID %d", i, n.ID)
		}
	}
}

func TestSortNeighborsStableOrder(t *testing.T) {
	ns := []Neighbor{{5, 2}, {1, 2}, {3, 1}}
	SortNeighbors(ns)
	want := []Neighbor{{3, 1}, {1, 2}, {5, 2}}
	if !equalNeighbors(ns, want) {
		t.Errorf("SortNeighbors = %v, want %v", ns, want)
	}
}

// refMerge is the obvious MergeTopK oracle: concatenate, sort with the
// shared tie-break, truncate.
func refMerge(a, b []Neighbor, k int) []Neighbor {
	all := append(append([]Neighbor{}, a...), b...)
	SortNeighbors(all)
	if k < 0 {
		k = 0
	}
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func TestMergeTopKNonPositiveK(t *testing.T) {
	a := []Neighbor{{ID: 1, Dist: 0}}
	b := []Neighbor{{ID: 2, Dist: 1}}
	for _, k := range []int{0, -1, -100} {
		if got := MergeTopK(a, b, k); len(got) != 0 {
			t.Errorf("MergeTopK(k=%d) = %v, want empty", k, got)
		}
	}
}

func TestMergeTopKEmptyLists(t *testing.T) {
	a := []Neighbor{{ID: 3, Dist: 1}, {ID: 1, Dist: 2}}
	if got := MergeTopK(a, nil, 5); !equalNeighbors(got, a) {
		t.Errorf("MergeTopK(a, nil) = %v, want %v", got, a)
	}
	if got := MergeTopK(nil, a, 5); !equalNeighbors(got, a) {
		t.Errorf("MergeTopK(nil, a) = %v, want %v", got, a)
	}
	if got := MergeTopK(nil, a, 1); !equalNeighbors(got, a[:1]) {
		t.Errorf("MergeTopK(nil, a, 1) = %v, want %v", got, a[:1])
	}
	if got := MergeTopK(nil, nil, 3); len(got) != 0 {
		t.Errorf("MergeTopK(nil, nil) = %v, want empty", got)
	}
}

func TestMergeTopKLargerThanBothLists(t *testing.T) {
	a := []Neighbor{{ID: 0, Dist: 1}, {ID: 4, Dist: 3}}
	b := []Neighbor{{ID: 2, Dist: 2}}
	got := MergeTopK(a, b, 100)
	want := refMerge(a, b, 100)
	if !equalNeighbors(got, want) {
		t.Errorf("MergeTopK(k=100) = %v, want all %v", got, want)
	}
	if len(got) != 3 {
		t.Errorf("kept %d neighbors, want all 3", len(got))
	}
}

// TestMergeTopKTieStability: equal distances break by ID no matter which
// side of the merge a neighbor arrives on — the property that makes every
// board-merge order produce identical serving results.
func TestMergeTopKTieStability(t *testing.T) {
	a := []Neighbor{{ID: 1, Dist: 5}, {ID: 4, Dist: 5}, {ID: 9, Dist: 5}}
	b := []Neighbor{{ID: 0, Dist: 5}, {ID: 3, Dist: 5}, {ID: 7, Dist: 5}}
	for _, k := range []int{1, 3, 4, 6} {
		ab := MergeTopK(a, b, k)
		ba := MergeTopK(b, a, k)
		want := refMerge(a, b, k)
		if !equalNeighbors(ab, want) {
			t.Errorf("k=%d: MergeTopK(a,b) = %v, want %v", k, ab, want)
		}
		if !equalNeighbors(ab, ba) {
			t.Errorf("k=%d: merge order changed the result: %v vs %v", k, ab, ba)
		}
	}
}

// TestMergeTopKRandomizedAgainstOracle: random sorted inputs, k from empty
// through oversize, both merge orders — always the oracle's answer. IDs
// are kept disjoint (evens vs odds) so equal (Dist, ID) pairs cannot occur
// across lists.
func TestMergeTopKRandomizedAgainstOracle(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 200; trial++ {
		na := int(rng.Uint64() % 8)
		nb := int(rng.Uint64() % 8)
		a := make([]Neighbor, na)
		for i := range a {
			a[i] = Neighbor{ID: 2 * int(rng.Uint64()%50), Dist: int(rng.Uint64() % 6)}
		}
		b := make([]Neighbor, nb)
		for i := range b {
			b[i] = Neighbor{ID: 2*int(rng.Uint64()%50) + 1, Dist: int(rng.Uint64() % 6)}
		}
		SortNeighbors(a)
		SortNeighbors(b)
		for _, k := range []int{0, 1, 3, na + nb, na + nb + 5} {
			want := refMerge(a, b, k)
			if got := MergeTopK(a, b, k); !equalNeighbors(got, want) {
				t.Fatalf("trial %d k=%d: MergeTopK = %v, want %v (a=%v b=%v)", trial, k, got, want, a, b)
			}
			if got := MergeTopK(b, a, k); !equalNeighbors(got, want) {
				t.Fatalf("trial %d k=%d reversed: MergeTopK = %v, want %v", trial, k, got, want)
			}
		}
	}
}
