package core

import (
	"context"

	"repro/internal/ap"
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

// EngineOptions configures NewEngine.
type EngineOptions struct {
	// Layout overrides the default monotonic layout.
	Layout *Layout
	// Capacity overrides vectors per board configuration (0 = paper default).
	Capacity int
}

// partition is one precompiled board image (§III-C: "we assume these
// additional configurations are precompiled into a set of board images").
type partition struct {
	net       *automata.Network
	placement *ap.Placement
	idOffset  int
	size      int
}

// Engine executes exact Hamming kNN on a simulated AP board, scaling past
// the board capacity with partial reconfiguration: queries are streamed
// against each precompiled dataset partition in turn and the host merges the
// per-partition top-k results (§III-C).
type Engine struct {
	board      *ap.Board
	layout     Layout
	capacity   int
	partitions []partition
	datasetLen int
}

// NewEngine partitions ds into board images, builds the kNN automata for
// each, and precompiles their placements.
func NewEngine(board *ap.Board, ds *bitvec.Dataset, opts EngineOptions) (*Engine, error) {
	layout, err := ResolveLayout(ds.Dim(), opts.Layout)
	if err != nil {
		return nil, err
	}
	capacity, err := ResolveCapacity(ds.Dim(), opts.Capacity)
	if err != nil {
		return nil, err
	}
	e := &Engine{board: board, layout: layout, capacity: capacity, datasetLen: ds.Len()}
	e.partitions, err = compilePartitions(board.Config(), ds, capacity, "linear",
		func(net *automata.Network, part *bitvec.Dataset) {
			BuildLinear(net, part, layout)
		})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Layout returns the engine's stream layout.
func (e *Engine) Layout() Layout { return e.layout }

// Partitions returns the number of board configurations the dataset needs.
func (e *Engine) Partitions() int { return len(e.partitions) }

// Board returns the underlying board (for modeled-time queries).
func (e *Engine) Board() *ap.Board { return e.board }

// Query answers a batch of queries with the k nearest neighbors each,
// reconfiguring the board once per dataset partition and merging results on
// the host. Results are (distance, ID)-sorted.
func (e *Engine) Query(queries []bitvec.Vector, k int) ([][]knn.Neighbor, error) {
	batch, err := EncodeBatch(queries, e.layout)
	if err != nil {
		return nil, err
	}
	return e.QueryEncoded(context.Background(), batch, k, nil, 0)
}

// QueryEncoded answers a pre-encoded batch, letting pipelined drivers encode
// the stream once and reuse it across boards and partitions. A non-nil dead
// is a set of positions to leave out, this engine's vector i being position
// base+i: their reports are dropped as they are decoded. Cancellation of ctx
// aborts the configuration sweep at the next partition boundary.
func (e *Engine) QueryEncoded(ctx context.Context, batch *EncodedBatch, k int, dead bitvec.Bitset, base int) ([][]knn.Neighbor, error) {
	return queryPartitions(ctx, e.board, e.partitions, e.layout, batch, k, dead, base)
}
