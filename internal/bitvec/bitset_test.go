package bitvec

import (
	"reflect"
	"testing"

	"repro/internal/stats"
)

func TestBitsetAddWithHas(t *testing.T) {
	var s Bitset
	if s.Has(0) || s.Has(1<<20) || s.Has(-1) {
		t.Fatal("nil set has members")
	}
	if !s.Covers(0) || s.Covers(1) {
		t.Fatal("nil set covers exactly nothing")
	}
	s = s.Add(70, 0)
	if !s.Has(70) || s.Has(69) || s.Has(71) || s.Has(128) || len(s) != 2 {
		t.Fatalf("after Add(70): %v", s)
	}
	s = s.Add(3, 300)
	if !s.Has(3) || !s.Has(70) || !s.Covers(300) || s.Covers(321) {
		t.Fatalf("after Add(3, 300): %d words", len(s))
	}
	// With copies: the receiver, shared with readers, never changes.
	before := append(Bitset(nil), s...)
	w := s.With(299, 10)
	if !reflect.DeepEqual(s, before) {
		t.Fatal("With wrote to its receiver")
	}
	if !w.Has(299) || !w.Has(3) || !w.Has(70) || len(w) != len(s) {
		t.Fatalf("With(299, 10) = %d words, want the receiver's %d with the bit set", len(w), len(s))
	}
	if g := Bitset(nil).With(5, 1000); !g.Has(5) || !g.Covers(1000) {
		t.Fatalf("nil.With(5, 1000) covers %d positions", len(g)*64)
	}
	if g := w.With(700, 0); !g.Has(700) || !g.Has(299) {
		t.Fatal("With past the end did not grow")
	}
}

// TestBitsetRunsAndEach holds ClearRuns, NextClear and Each to a
// bit-at-a-time walk, for n below, at and past what the set covers.
func TestBitsetRunsAndEach(t *testing.T) {
	rng := stats.NewRNG(31)
	for trial := 0; trial < 200; trial++ {
		covered := rng.Intn(260)
		var s Bitset
		var members []int
		density := rng.Intn(5) // 0: empty ... 4: nearly full
		for i := 0; i < covered; i++ {
			if rng.Intn(4) < density {
				s = s.Add(i, covered)
				members = append(members, i)
			}
		}
		var each []int
		s.Each(func(i int) { each = append(each, i) })
		if !reflect.DeepEqual(each, members) {
			t.Fatalf("Each = %v, want %v", each, members)
		}
		for _, n := range []int{0, 1, covered / 2, covered, covered + 1, covered + 200} {
			var want [][2]int
			for i := 0; i < n; i++ {
				if s.Has(i) {
					continue
				}
				if len(want) > 0 && want[len(want)-1][1] == i {
					want[len(want)-1][1]++
				} else {
					want = append(want, [2]int{i, i + 1})
				}
			}
			var got [][2]int
			s.ClearRuns(n, func(lo, hi int) { got = append(got, [2]int{lo, hi}) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("covered=%d n=%d members=%v: ClearRuns = %v, want %v", covered, n, members, got, want)
			}
			for from := 0; from <= n; from += 1 + rng.Intn(9) {
				want := from
				for want < n && s.Has(want) {
					want++
				}
				if got := s.NextClear(from, n); got != want {
					t.Fatalf("covered=%d members=%v: NextClear(%d, %d) = %d, want %d", covered, members, from, n, got, want)
				}
			}
		}
	}
}

func TestDatasetAppendWords(t *testing.T) {
	rng := stats.NewRNG(32)
	src := RandomDataset(rng, 10, 100)
	dst := NewDataset(100)
	dst.Grow(7)
	backing := &dst.words[:1][0]
	dst.Append(src.At(9))
	dst.AppendWords(src.Words()[2*src.WordsPerVector() : 8*src.WordsPerVector()])
	if &dst.words[0] != backing {
		t.Error("appends within Grow's reservation reallocated")
	}
	want := []int{9, 2, 3, 4, 5, 6, 7}
	if dst.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", dst.Len(), len(want))
	}
	for i, id := range want {
		if !dst.At(i).Equal(src.At(id)) {
			t.Errorf("vector %d is not source vector %d", i, id)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AppendWords accepted half a vector")
		}
	}()
	dst.AppendWords(make([]uint64, 1))
}
