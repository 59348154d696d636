package core

import (
	"fmt"

	"repro/internal/aperr"
	"repro/internal/bitvec"
)

// EncodedBatch is a query batch prepared for a board: its query count and
// the symbol stream that drives every partition of a configuration sweep.
// Encoding once per batch — instead of once per partition — is what lets
// the sharded driver feed the same stream to every board (§III-C streams
// the identical query batch against each partition).
type EncodedBatch struct {
	n      int
	stream []byte
}

// EncodeBatch checks every query's dimensionality against the layout and
// builds the batch's symbol stream.
func EncodeBatch(queries []bitvec.Vector, l Layout) (*EncodedBatch, error) {
	if err := checkDims(queries, l); err != nil {
		return nil, err
	}
	return &EncodedBatch{n: len(queries), stream: BuildStream(queries, l)}, nil
}

// checkDims checks every query's dimensionality against the layout.
func checkDims(queries []bitvec.Vector, l Layout) error {
	for i, q := range queries {
		if q.Dim() != l.Dim {
			return fmt.Errorf("core: query %d has dim %d, want %d: %w", i, q.Dim(), l.Dim, aperr.ErrDimMismatch)
		}
	}
	return nil
}

// Len returns the number of queries in the batch.
func (b *EncodedBatch) Len() int { return b.n }

// PartitionRanges splits n dataset vectors into the contiguous [lo,hi)
// capacity-sized ranges that become board configurations — the partitioning
// rule shared by every engine and by the shard planner, so partition
// boundaries (and therefore report IDs and merge behaviour) agree across all
// execution paths. It panics on a non-positive capacity: callers resolve
// user-supplied capacities through ResolveCapacity first, so a bad value
// here is a programming error, not a runtime condition.
func PartitionRanges(n, capacity int) [][2]int {
	if capacity <= 0 {
		panic(fmt.Sprintf("core: non-positive board capacity %d", capacity))
	}
	var out [][2]int
	for lo := 0; lo < n; lo += capacity {
		hi := lo + capacity
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// ResolveCapacity applies the paper default when the option is zero.
func ResolveCapacity(dim, capacity int) (int, error) {
	if capacity == 0 {
		capacity = DefaultBoardCapacity(dim)
	}
	if capacity <= 0 {
		return 0, fmt.Errorf("core: non-positive board capacity %d", capacity)
	}
	return capacity, nil
}

// ResolveLayout applies the default monotonic layout and validates.
func ResolveLayout(dim int, override *Layout) (Layout, error) {
	layout := NewLayout(dim)
	if override != nil {
		layout = *override
	}
	if err := layout.Validate(); err != nil {
		return Layout{}, err
	}
	return layout, nil
}
