package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/ap"
	"repro/internal/aperr"
	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/knn"
)

// DefaultBoardCapacity returns the number of dataset vectors one board
// configuration holds, calibrated to the paper's §V-A compilation reports:
// one configuration encodes up to 128 Kb of data — 1024 vectors at up to 128
// dimensions, 512 vectors at 256 dimensions (kNN-WordEmbed is additionally
// PCIe-limited to 1024).
func DefaultBoardCapacity(dim int) int {
	if dim <= 128 {
		return 1024
	}
	return 512
}

// EngineOptions configures NewEngine and NewApproxEngine.
type EngineOptions struct {
	// Capacity overrides vectors per board configuration (0 = paper default).
	Capacity int
}

// partition is one precompiled board image (§III-C: "we assume these
// additional configurations are precompiled into a set of board images").
type partition struct {
	net      *automata.Network
	idOffset int
	size     int
}

// Engine executes Hamming kNN on a simulated AP board, scaling past the
// board capacity with partial reconfiguration: queries are streamed against
// each precompiled dataset partition in turn and the host merges the
// per-partition top-k results (§III-C). The two constructors differ only in
// the network each partition holds: NewEngine's linear design answers
// exactly, NewApproxEngine's reduction groups (§VI-C) mostly so.
type Engine struct {
	board      *ap.Board
	layout     Layout
	partitions []partition
}

// NewEngine partitions ds into board images of the linear kNN design and
// precompiles their placements.
func NewEngine(board *ap.Board, ds *bitvec.Dataset, opts EngineOptions) (*Engine, error) {
	return newEngine(board, ds, opts, "linear", func(net *automata.Network, part *bitvec.Dataset, l Layout) {
		BuildLinear(net, part, l)
	})
}

// NewApproxEngine partitions ds into board images of reduction groups: the
// linear design with every groupSize macros sharing a local neighbor counter
// of threshold kPrime (§VI-C, Fig. 7; the paper's p is 16 in Table VI). Each
// group reports only its nearest members per query, cutting report
// bandwidth by roughly p/k' while returning the exact top-k with high
// probability — the mostly-correct trade Table VI quantifies. Suppressed
// vectors never report, so the host sorts only the survivors.
func NewApproxEngine(board *ap.Board, ds *bitvec.Dataset, opts EngineOptions, groupSize, kPrime int) (*Engine, error) {
	if groupSize <= 1 {
		return nil, fmt.Errorf("core: reduction group size %d must exceed 1", groupSize)
	}
	if kPrime <= 0 {
		return nil, fmt.Errorf("core: kPrime %d must be positive", kPrime)
	}
	return newEngine(board, ds, opts, "reduction", func(net *automata.Network, part *bitvec.Dataset, l Layout) {
		for glo := 0; glo < part.Len(); glo += groupSize {
			ghi := min(glo+groupSize, part.Len())
			if ghi-glo < 2 {
				// A trailing singleton group gets a plain macro: suppression
				// over one vector is meaningless.
				BuildMacro(net, part.At(glo), l, int32(glo))
				continue
			}
			BuildReductionGroup(net, part.Slice(glo, ghi), l, kPrime, int32(glo))
		}
	})
}

// newEngine is the §III-C precompilation path: one board image per
// capacity range of ds, whose network build populates (vectors [lo,hi),
// report IDs local to the partition) before it is validated and placed for
// the board's configuration.
func newEngine(board *ap.Board, ds *bitvec.Dataset, opts EngineOptions, what string,
	build func(net *automata.Network, part *bitvec.Dataset, l Layout)) (*Engine, error) {
	layout, err := ResolveLayout(ds.Dim())
	if err != nil {
		return nil, err
	}
	capacity, err := ResolveCapacity(ds.Dim(), opts.Capacity)
	if err != nil {
		return nil, err
	}
	e := &Engine{board: board, layout: layout}
	for _, r := range PartitionRanges(ds.Len(), capacity) {
		lo, hi := r[0], r[1]
		net := automata.NewNetwork()
		build(net, ds.Slice(lo, hi), layout)
		if err := net.Validate(); err != nil {
			return nil, fmt.Errorf("core: %s partition [%d,%d): %w", what, lo, hi, err)
		}
		if _, err := ap.Compile(net, board.Config()); err != nil {
			return nil, fmt.Errorf("core: %s partition [%d,%d): %w", what, lo, hi, err)
		}
		e.partitions = append(e.partitions, partition{net: net, idOffset: lo, size: hi - lo})
	}
	return e, nil
}

// Partitions returns the number of board configurations the dataset needs.
func (e *Engine) Partitions() int { return len(e.partitions) }

// Board returns the underlying board (for modeled time and its report,
// symbol and reconfiguration counts).
func (e *Engine) Board() *ap.Board { return e.board }

// QueryEncoded is the partial-reconfiguration loop: reconfigure the board
// once per precompiled partition, stream the pre-encoded batch, decode the
// reports into per-query neighbor lists, and merge each partition's top-k
// into the running result on the host (§III-C). This engine's vector i is
// dataset position base+i, and results carry dataset positions. A non-nil
// dead leaves positions out as their reports are decoded, before the top-k;
// the board reports every vector either way, so its meters are those of a
// plain query. Cancellation of ctx is checked between partitions — one
// reconfigure-and-stream pass is the unit of preemption.
func (e *Engine) QueryEncoded(ctx context.Context, batch *EncodedBatch, k int, dead bitvec.Bitset, base int) ([][]knn.Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: got k=%d: %w", k, aperr.ErrBadK)
	}
	results := make([][]knn.Neighbor, batch.Len())
	for _, p := range e.partitions {
		if err := ctx.Err(); err != nil {
			return nil, aperr.Canceled(err)
		}
		if err := e.board.Load(p.net); err != nil {
			return nil, err
		}
		decoded, err := DecodeReports(e.board.Stream(batch.stream), e.layout, batch.Len(), p.size, base+p.idOffset)
		if err != nil {
			return nil, err
		}
		for qi, ns := range decoded {
			if dead != nil {
				ns = slices.DeleteFunc(ns, func(n knn.Neighbor) bool { return dead.Has(n.ID) })
			}
			results[qi] = knn.MergeTopK(results[qi], TopK(ns, k), k)
		}
	}
	return results, nil
}
