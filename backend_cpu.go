package apknn

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

func init() {
	mustRegister(backendFunc{CPU, func(ds *Dataset, cfg Config) (Index, error) {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.NumCPU()
		}
		c := &cpuIndex{ds: ds, workers: workers, platform: perfmodel.XeonE5()}
		c.backendMetrics = newBackendMetrics(&obs.Set{}, nil, nil, c.pairs.Load)
		return c, nil
	}})
}

// cpuIndex is the exact CPU baseline (§IV-C), served by the blocked parallel
// Hamming kernel (internal/knn's ScanBatch): the packed-word slab is shared
// out block by block across the workers, every query of a batch is scored
// against a block while it is cache-resident (AVX-512 VPOPCNTQ where the
// host has it, math/bits elsewhere), and bounded per-core heaps merge under
// the (Dist, ID) order. Every batch shape — a single query included —
// parallelizes across the dataset, once it is large enough to be worth a
// second core. Modeled time still charges the calibrated Xeon E5 pair-cost
// model per batch, keeping the paper-comparable meter independent of this
// machine.
type cpuIndex struct {
	ds       *Dataset
	workers  int
	platform perfmodel.Platform
	backendMetrics
	modeled atomic.Int64 // nanoseconds
	pairs   atomic.Int64
}

func (c *cpuIndex) Search(ctx context.Context, queries []Vector, k int) ([][]Neighbor, error) {
	return c.SearchExcluding(ctx, queries, k, nil)
}

// SearchExcluding implements apstats.ExcludingSearcher.
func (c *cpuIndex) SearchExcluding(ctx context.Context, queries []Vector, k int, dead bitvec.Bitset) ([][]Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cpu: got k=%d: %w", k, aperr.ErrBadK)
	}
	for i, q := range queries {
		if q.Dim() != c.ds.Dim() {
			return nil, fmt.Errorf("cpu: query %d dim %d != dataset dim %d: %w", i, q.Dim(), c.ds.Dim(), aperr.ErrDimMismatch)
		}
	}
	// The kernel itself is trace-free (per-candidate hot path); one span
	// around the whole scan is all a trace needs. Nil-safe no-op when the
	// context carries no trace.
	ksp := obs.StartSpan(ctx, "kernel_scan")
	res, err := knn.ScanBatch(ctx, c.ds, queries, k, knn.ScanConfig{Workers: c.workers, Exclude: dead})
	ksp.End()
	if err != nil {
		return nil, err
	}
	c.countSearch(len(queries))
	c.modeled.Add(int64(perfmodel.CPUTime(c.platform, c.ds.Len(), len(queries), c.ds.Dim())))
	c.pairs.Add(int64(c.ds.Len()) * int64(len(queries)))
	return res, nil
}

func (c *cpuIndex) ModeledTime() time.Duration { return time.Duration(c.modeled.Load()) }

func (c *cpuIndex) Stats() Stats {
	st := c.snapshot(CPU)
	st.Boards = 1
	return st
}
