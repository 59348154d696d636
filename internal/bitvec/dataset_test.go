package bitvec

import (
	"testing"

	"repro/internal/stats"
)

func TestDatasetAppendAt(t *testing.T) {
	ds := NewDataset(64)
	rng := stats.NewRNG(3)
	var originals []Vector
	for i := 0; i < 10; i++ {
		v := Random(rng, 64)
		originals = append(originals, v)
		if id := ds.Append(v); id != i {
			t.Fatalf("Append returned id %d, want %d", id, i)
		}
	}
	if ds.Len() != 10 {
		t.Fatalf("Len = %d, want 10", ds.Len())
	}
	for i, v := range originals {
		if !ds.At(i).Equal(v) {
			t.Errorf("vector %d does not round trip", i)
		}
	}
}

func TestDatasetAppendDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append with wrong dim did not panic")
		}
	}()
	NewDataset(64).Append(New(32))
}

func TestDatasetSlice(t *testing.T) {
	rng := stats.NewRNG(11)
	ds := RandomDataset(rng, 20, 32)
	s := ds.Slice(5, 12)
	if s.Len() != 7 {
		t.Fatalf("slice Len = %d, want 7", s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if !s.At(i).Equal(ds.At(i + 5)) {
			t.Errorf("slice vector %d differs from source %d", i, i+5)
		}
	}
}

func TestDatasetHamming(t *testing.T) {
	ds := NewDataset(4)
	a, _ := ParseBits("1011")
	ds.Append(a)
	q, _ := ParseBits("1001")
	if d := ds.Hamming(0, q); d != 1 {
		t.Errorf("dataset Hamming = %d, want 1", d)
	}
}

func TestDatasetWordsSlab(t *testing.T) {
	ds := RandomDataset(stats.NewRNG(3), 9, 100)
	wpv := ds.WordsPerVector()
	if wpv != WordsFor(100) {
		t.Fatalf("WordsPerVector = %d, want %d", wpv, WordsFor(100))
	}
	slab := ds.Words()
	if len(slab) != 9*wpv {
		t.Fatalf("Words len = %d, want %d", len(slab), 9*wpv)
	}
	for i := 0; i < ds.Len(); i++ {
		row := slab[i*wpv : (i+1)*wpv]
		for w, want := range ds.WordsAt(i) {
			if row[w] != want {
				t.Fatalf("vector %d word %d: slab %x != WordsAt %x", i, w, row[w], want)
			}
		}
	}
}

func TestDatasetAtOutOfRangePanics(t *testing.T) {
	ds := RandomDataset(stats.NewRNG(2), 4, 16)
	defer func() {
		if recover() == nil {
			t.Error("At out of range did not panic")
		}
	}()
	ds.At(4)
}
