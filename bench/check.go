package main

import (
	"fmt"

	apknn "repro"
	"repro/internal/knn"
)

// checkReply verifies what every reply must satisfy without an oracle scan:
// exactly k results, strictly ascending by (Dist, ID), every ID a live
// vector, every distance equal to the one recomputed from the benchmark's
// own copy. lookup returns nil for an ID that is not live.
func checkReply(got []apknn.Neighbor, k int, q []uint64, lookup func(id int) []uint64) error {
	if len(got) != k {
		return fmt.Errorf("got %d neighbors, want %d", len(got), k)
	}
	for i, nb := range got {
		if i > 0 && !got[i-1].Less(nb) {
			return fmt.Errorf("neighbors %d and %d out of (Dist, ID) order: %v then %v", i-1, i, got[i-1], nb)
		}
		w := lookup(nb.ID)
		if w == nil {
			return fmt.Errorf("neighbor %d: ID %d is not a live vector", i, nb.ID)
		}
		if d := hamming(w, q); d != nb.Dist {
			return fmt.Errorf("neighbor %d: ID %d at distance %d, recomputed %d", i, nb.ID, nb.Dist, d)
		}
	}
	return nil
}

// oracle is the brute-force reference over a contiguous ID range of the
// benchmark's copy: knn.Linear on a Dataset parsed from the benchmark's own
// bytes, with local IDs shifted back to global ones.
type oracle struct {
	ds   *apknn.Dataset
	base int
}

func newOracle(v *vectors, lo, hi int) (*oracle, error) {
	ds, err := v.dataset(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("oracle dataset: %w", err)
	}
	return &oracle{ds: ds, base: lo}, nil
}

// equal demands the reply match the oracle element for element — the
// repository's house invariant (byte-identical under the (Dist, ID)
// tie-break), which also catches a missing neighbor that checkReply cannot.
func (o *oracle) equal(q apknn.Vector, k int, got []apknn.Neighbor) error {
	want := knn.Linear(o.ds, q, k)
	if len(got) != len(want) {
		return fmt.Errorf("got %d neighbors, oracle has %d", len(got), len(want))
	}
	for i, w := range want {
		w.ID += o.base
		if got[i] != w {
			return fmt.Errorf("neighbor %d is %v, oracle says %v", i, got[i], w)
		}
	}
	return nil
}
