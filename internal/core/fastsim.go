package core

import (
	"context"
	"fmt"

	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/knn"
)

// FastEngine is a semantics-equivalent model of Engine: it returns the same
// per-query neighbor lists the board does, tie behaviour included, from
// Hamming distances instead of cycle-accurate simulation. Dataset IDs are
// unique, so merging per-partition top-k lists under the (Dist, ID) order —
// what Engine does on the host — equals one global top-k, and the host
// answers a batch with a single blocked scan of the dataset (knn.ScanBatch).
// Partitions survive only where the board needs them: in the modeled
// columns (Partitions, SymbolsStreamed, ReportRecords, ReportCycles).
// Property tests in this package verify it against the real automata
// execution; the large Monte Carlo experiments (Table VI) and the
// million-vector workloads run on it.
type FastEngine struct {
	ds       *bitvec.Dataset
	layout   Layout
	capacity int
}

// NewFastEngine mirrors NewEngine's partitioning without building automata.
func NewFastEngine(ds *bitvec.Dataset, opts EngineOptions) (*FastEngine, error) {
	layout, err := ResolveLayout(ds.Dim(), opts.Layout)
	if err != nil {
		return nil, err
	}
	capacity, err := ResolveCapacity(ds.Dim(), opts.Capacity)
	if err != nil {
		return nil, err
	}
	return &FastEngine{ds: ds, layout: layout, capacity: capacity}, nil
}

// Layout returns the stream layout.
func (f *FastEngine) Layout() Layout { return f.layout }

// Partitions returns the number of board configurations the dataset needs.
func (f *FastEngine) Partitions() int {
	return (f.ds.Len() + f.capacity - 1) / f.capacity
}

// ReportCycles returns, for one query, the window-relative cycle at which
// each dataset vector's macro reports — the temporal-sort encoding a real
// board would emit.
func (f *FastEngine) ReportCycles(q bitvec.Vector) []int {
	out := make([]int, f.ds.Len())
	for i := 0; i < f.ds.Len(); i++ {
		ihd := f.ds.Dim() - f.ds.Hamming(i, q)
		out[i] = f.layout.ReportCycle(ihd)
	}
	return out
}

// Query returns the same results Engine.Query produces.
func (f *FastEngine) Query(queries []bitvec.Vector, k int) ([][]knn.Neighbor, error) {
	return f.SearchExcluding(context.Background(), queries, k, nil)
}

// SearchExcluding is Query with cancellation over the dataset without the
// positions in dead (see knn.ScanConfig.Exclude): what a board whose dead
// macros had their reporting states masked would return.
func (f *FastEngine) SearchExcluding(ctx context.Context, queries []bitvec.Vector, k int, dead bitvec.Bitset) ([][]knn.Neighbor, error) {
	batch, err := ValidateBatch(queries, f.layout)
	if err != nil {
		return nil, err
	}
	return f.scan(ctx, batch, k, dead)
}

// QueryEncoded answers a pre-validated batch without re-checking dimensions;
// the symbol stream, if any, is ignored — this engine models the board
// semantics directly from Hamming distances. Cancellation is honored
// between blocks of the scan.
func (f *FastEngine) QueryEncoded(ctx context.Context, batch *EncodedBatch, k int) ([][]knn.Neighbor, error) {
	return f.scan(ctx, batch, k, nil)
}

func (f *FastEngine) scan(ctx context.Context, batch *EncodedBatch, k int, dead bitvec.Bitset) ([][]knn.Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: got k=%d: %w", k, aperr.ErrBadK)
	}
	return knn.ScanBatch(ctx, f.ds, batch.Queries(), k, knn.ScanConfig{Exclude: dead})
}

// SymbolsStreamed returns the total symbols a board would consume answering
// numQueries queries: one full query stream per partition (§III-C).
func (f *FastEngine) SymbolsStreamed(numQueries int) int {
	return f.Partitions() * numQueries * f.layout.StreamLen()
}

// ReportRecords returns the number of report records a board would emit: one
// per (partition vector, query).
func (f *FastEngine) ReportRecords(numQueries int) int {
	return f.ds.Len() * numQueries
}
