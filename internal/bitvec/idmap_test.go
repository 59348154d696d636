package bitvec_test

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// expand lists a map's IDs in position order.
func expand(m bitvec.IDMap) []int {
	var ids []int
	m.EachRun(func(first, count int) {
		for id := first; id < first+count; id++ {
			ids = append(ids, id)
		}
	})
	return ids
}

func equalInts(a, b []int) bool {
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

// TestIDMapMatchesList builds maps one ID at a time from random ascending
// lists — contiguous stretches broken by gaps of a few IDs, starting at zero
// or past it — and holds each to the plain list: its run count, identity,
// expansion, both lookups for every ID in and around its range, and the
// maps AppendSub builds from its sub-ranges.
func TestIDMapMatchesList(t *testing.T) {
	if m := bitvec.Identity(5); !m.IsIdentity() || m.Runs() != 1 || m.Len() != 5 {
		t.Fatalf("Identity(5): identity=%v, %d runs over %d", m.IsIdentity(), m.Runs(), m.Len())
	}
	if m := bitvec.Identity(0); !m.IsIdentity() || m.Runs() != 0 {
		t.Fatalf("Identity(0): identity=%v, %d runs", m.IsIdentity(), m.Runs())
	}
	rng := stats.NewRNG(17)
	for trial := 0; trial < 200; trial++ {
		var list []int
		var m bitvec.IDMap
		runs, id := 0, 0
		if rng.Intn(2) == 0 {
			id = rng.Intn(50)
		}
		for n := rng.Intn(200); len(list) < n; id++ {
			if rng.Intn(8) == 0 {
				id += 1 + rng.Intn(4)
			}
			if len(list) == 0 || id != list[len(list)-1]+1 {
				runs++
			}
			list = append(list, id)
			m.AppendRange(id, 1)
		}
		if m.Len() != len(list) || m.Runs() != runs || !equalInts(expand(m), list) {
			t.Fatalf("trial %d: %d ids in %d runs expand to %v, want %v in %d runs", trial, m.Len(), m.Runs(), expand(m), list, runs)
		}
		identity := true
		at := make(map[int]int, len(list))
		for pos, id := range list {
			identity = identity && id == pos
			at[id] = pos
			if got := m.ID(pos); got != id {
				t.Fatalf("trial %d: ID(%d) = %d, want %d", trial, pos, got, id)
			}
		}
		if m.IsIdentity() != identity {
			t.Fatalf("trial %d: IsIdentity = %v for %v", trial, m.IsIdentity(), list)
		}
		last := -1
		if len(list) > 0 {
			last = list[len(list)-1]
		}
		for id := -2; id <= last+2; id++ {
			pos, ok := m.Position(id)
			want, in := at[id]
			if ok != in || ok && pos != want {
				t.Fatalf("trial %d: Position(%d) = %d, %v; want %d, %v", trial, id, pos, ok, want, in)
			}
		}
		lo := rng.Intn(len(list) + 1)
		hi := lo + rng.Intn(len(list)-lo+1)
		var whole, cut bitvec.IDMap
		whole.AppendSub(m, 0, len(list))
		cut.AppendSub(m, 0, lo)
		cut.AppendSub(m, hi, len(list))
		want := append(append([]int(nil), list[:lo]...), list[hi:]...)
		if whole.Runs() != runs || !equalInts(expand(whole), list) || !equalInts(expand(cut), want) {
			t.Fatalf("trial %d: AppendSub of [0,%d) and [%d,%d) gave %v, want %v", trial, lo, hi, len(list), expand(cut), want)
		}
	}
}

// TestIDMapRefusesDescendingIDs: a map's IDs only ascend.
func TestIDMapRefusesDescendingIDs(t *testing.T) {
	m := bitvec.Identity(4)
	defer func() {
		if recover() == nil {
			t.Fatal("AppendRange at an ID already mapped did not panic")
		}
	}()
	m.AppendRange(3, 1)
}
