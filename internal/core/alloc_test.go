//go:build !race

package core

import (
	"bytes"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// TestEncodeBatchAllocBudget: encoding a batch is the batch and its one
// symbol stream, every query window appended in place. It made 10
// allocations for 8 queries while each window was built in a slice of its
// own and copied in. Compiled out under -race, like the other allocation
// budgets.
func TestEncodeBatchAllocBudget(t *testing.T) {
	const ceiling = 2
	rng := stats.NewRNG(7)
	l := NewLayout(64)
	queries := make([]bitvec.Vector, 8)
	for i := range queries {
		queries[i] = bitvec.Random(rng, l.Dim)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := EncodeBatch(queries, l); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("EncodeBatch of %d queries at d=%d allocates %.0f times", len(queries), l.Dim, allocs)
	if allocs > ceiling {
		t.Errorf("EncodeBatch allocates %.0f times, ceiling %d", allocs, ceiling)
	}
	b, err := EncodeBatch(queries, l)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, q := range queries {
		want = append(want, BuildQueryStream(q, l)...)
	}
	if !bytes.Equal(b.stream, want) {
		t.Fatal("the batch stream is not its queries' windows in order")
	}
}
