package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/ap"
	"repro/internal/aperr"
	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/knn"
)

// EncodedBatch is a query batch prepared for execution: the validated query
// vectors plus, for board-backed engines, the symbol stream that drives every
// partition of a configuration sweep. Encoding once per batch — instead of
// once per engine invocation — is what lets the sharded driver pipeline
// query encoding against board streaming and feed the same stream to every
// board (§III-C streams the identical query batch against each partition).
type EncodedBatch struct {
	queries []bitvec.Vector
	encode  sync.Once
	stream  []byte
}

// EncodeBatch validates the queries against the layout and builds their
// symbol stream.
func EncodeBatch(queries []bitvec.Vector, l Layout) (*EncodedBatch, error) {
	b, err := ValidateBatch(queries, l)
	if err != nil {
		return nil, err
	}
	b.Stream(l)
	return b, nil
}

// ValidateBatch validates the queries without building the stream — the
// preparation step for engines that never touch a symbol stream (FastEngine).
func ValidateBatch(queries []bitvec.Vector, l Layout) (*EncodedBatch, error) {
	if err := ValidateQueries(queries, l); err != nil {
		return nil, err
	}
	return &EncodedBatch{queries: queries}, nil
}

// ValidateQueries checks every query's dimensionality against the layout.
func ValidateQueries(queries []bitvec.Vector, l Layout) error {
	for i, q := range queries {
		if q.Dim() != l.Dim {
			return fmt.Errorf("core: query %d has dim %d, want %d: %w", i, q.Dim(), l.Dim, aperr.ErrDimMismatch)
		}
	}
	return nil
}

// Len returns the number of queries in the batch.
func (b *EncodedBatch) Len() int { return len(b.queries) }

// Queries returns the validated query vectors.
func (b *EncodedBatch) Queries() []bitvec.Vector { return b.queries }

// Stream returns the encoded symbol stream, building it on first use for
// batches prepared with ValidateBatch. Safe for concurrent callers — a
// batch may be shared across boards streaming in parallel.
func (b *EncodedBatch) Stream(l Layout) []byte {
	b.encode.Do(func() { b.stream = BuildStream(b.queries, l) })
	return b.stream
}

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

// compilePartitions builds one board image per capacity range of ds: build
// populates the network for a partition (vectors [lo,hi), report IDs local
// to the partition), then the image is validated and placed for the board
// configuration. This is the §III-C precompilation path shared by the linear
// and reduction engines.
func compilePartitions(cfg ap.DeviceConfig, ds *bitvec.Dataset, capacity int, what string,
	build func(net *automata.Network, part *bitvec.Dataset)) ([]partition, error) {
	var parts []partition
	for _, r := range PartitionRanges(ds.Len(), capacity) {
		lo, hi := r[0], r[1]
		net := automata.NewNetwork()
		build(net, ds.Slice(lo, hi))
		if err := net.Validate(); err != nil {
			return nil, fmt.Errorf("core: %s partition [%d,%d): %w", what, lo, hi, err)
		}
		placement, err := ap.Compile(net, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: %s partition [%d,%d): %w", what, lo, hi, err)
		}
		parts = append(parts, partition{
			net: net, placement: placement, idOffset: lo, size: hi - lo,
		})
	}
	return parts, nil
}

// queryPartitions is the partial-reconfiguration execution loop shared by
// the board-backed engines: reconfigure the board once per precompiled
// partition, stream the batch, decode the reports into per-query neighbor
// lists, and merge each partition's top-k into the running result on the
// host (§III-C). A non-nil dead leaves positions out where their reports are
// decoded, before the top-k: the engine's vector i is position base+i. The
// board reports every vector either way, so its meters are those of a plain
// query. Cancellation is checked between partitions — one
// reconfigure-and-stream pass is the unit of preemption.
func queryPartitions(ctx context.Context, board *ap.Board, parts []partition, l Layout, batch *EncodedBatch, k int, dead bitvec.Bitset, base int) ([][]knn.Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: got k=%d: %w", k, aperr.ErrBadK)
	}
	results := make([][]knn.Neighbor, batch.Len())
	stream := batch.Stream(l)
	for _, p := range parts {
		if err := ctx.Err(); err != nil {
			return nil, aperr.Canceled(err)
		}
		if err := board.ConfigurePlaced(p.net, p.placement); err != nil {
			return nil, err
		}
		reports := board.Stream(stream)
		decoded, err := DecodeReports(reports, l, batch.Len(), p.idOffset)
		if err != nil {
			return nil, err
		}
		for qi, ns := range decoded {
			if dead != nil {
				ns = slices.DeleteFunc(ns, func(n knn.Neighbor) bool { return dead.Has(base + n.ID) })
			}
			results[qi] = knn.MergeTopK(results[qi], TopK(ns, k), k)
		}
	}
	return results, nil
}
