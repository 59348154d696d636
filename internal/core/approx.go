package core

import (
	"context"
	"fmt"

	"repro/internal/ap"
	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/knn"
)

// ApproxEngine is the statistical-activation-reduction engine: the linear
// kNN design of Engine with every partition's macros grouped under local
// neighbor counters (§VI-C, Fig. 7). Each group of P macros reports only
// its nearest members per query, cutting report bandwidth by roughly P/k'
// while returning the exact top-k with high probability — the mostly-correct
// trade the paper quantifies in Table VI.
type ApproxEngine struct {
	board      *ap.Board
	layout     Layout
	capacity   int
	groupSize  int
	kPrime     int
	partitions []partition
	datasetLen int
}

// NewApproxEngine partitions ds into board images of reduction groups.
// groupSize is the paper's p (16 in Table VI); kPrime the local suppression
// threshold.
func NewApproxEngine(board *ap.Board, ds *bitvec.Dataset, opts EngineOptions, groupSize, kPrime int) (*ApproxEngine, error) {
	layout, err := ResolveLayout(ds.Dim(), opts.Layout)
	if err != nil {
		return nil, err
	}
	if groupSize <= 1 {
		return nil, fmt.Errorf("core: reduction group size %d must exceed 1", groupSize)
	}
	if kPrime <= 0 {
		return nil, fmt.Errorf("core: kPrime %d must be positive", kPrime)
	}
	capacity, err := ResolveCapacity(ds.Dim(), opts.Capacity)
	if err != nil {
		return nil, err
	}
	e := &ApproxEngine{
		board: board, layout: layout, capacity: capacity,
		groupSize: groupSize, kPrime: kPrime, datasetLen: ds.Len(),
	}
	e.partitions, err = compilePartitions(board.Config(), ds, capacity, "reduction",
		func(net *automata.Network, part *bitvec.Dataset) {
			for glo := 0; glo < part.Len(); glo += groupSize {
				ghi := glo + groupSize
				if ghi > part.Len() {
					ghi = part.Len()
				}
				if ghi-glo < 2 {
					// A trailing singleton group gets a plain macro: suppression
					// over one vector is meaningless.
					BuildMacro(net, part.At(glo), layout, int32(glo))
					continue
				}
				BuildReductionGroup(net, part.Slice(glo, ghi), layout, kPrime, int32(glo))
			}
		})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Partitions returns the number of board configurations.
func (e *ApproxEngine) Partitions() int { return len(e.partitions) }

// KPrime returns the local suppression threshold.
func (e *ApproxEngine) KPrime() int { return e.kPrime }

// Query answers the batch approximately: suppressed vectors never report, so
// the host sorts only the surviving candidates. Results are exact whenever
// each query's true top-k survives suppression (Table VI measures how often
// that fails).
func (e *ApproxEngine) Query(queries []bitvec.Vector, k int) ([][]knn.Neighbor, error) {
	batch, err := EncodeBatch(queries, e.layout)
	if err != nil {
		return nil, err
	}
	return e.QueryEncoded(context.Background(), batch, k)
}

// QueryEncoded answers a pre-encoded batch (see Engine.QueryEncoded).
func (e *ApproxEngine) QueryEncoded(ctx context.Context, batch *EncodedBatch, k int) ([][]knn.Neighbor, error) {
	return queryPartitions(ctx, e.board, e.partitions, e.layout, batch, k, nil, 0)
}

// ReportsDelivered returns how many report records the board has emitted so
// far; compared against Engine's n-per-query this measures the achieved
// bandwidth reduction.
func (e *ApproxEngine) ReportsDelivered() int { return e.board.ReportsEmitted() }
