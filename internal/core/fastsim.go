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
//
// No backend answers through it: apknn's fast and sharded backends are the
// kernel scan index behind internal/shard's Meter. What is left is what
// bench/ reads — NewFastEngine, Layout and Query, timed as
// ap.fast_query_ns — and the reference TestFastEngineMatchesEngine holds
// against the automata.
type FastEngine struct {
	ds     *bitvec.Dataset
	layout Layout
}

// NewFastEngine accepts the options NewEngine accepts. The capacity only
// decides partition boundaries, which the results do not depend on.
func NewFastEngine(ds *bitvec.Dataset, opts EngineOptions) (*FastEngine, error) {
	layout, err := ResolveLayout(ds.Dim())
	if err != nil {
		return nil, err
	}
	if _, err := ResolveCapacity(ds.Dim(), opts.Capacity); err != nil {
		return nil, err
	}
	return &FastEngine{ds: ds, layout: layout}, nil
}

// Layout returns the stream layout.
func (f *FastEngine) Layout() Layout { return f.layout }

// Query returns the same results Engine.QueryEncoded produces.
func (f *FastEngine) Query(queries []bitvec.Vector, k int) ([][]knn.Neighbor, error) {
	if err := checkDims(queries, f.layout); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: got k=%d: %w", k, aperr.ErrBadK)
	}
	return knn.ScanBatch(context.Background(), f.ds, queries, k, knn.ScanConfig{})
}
