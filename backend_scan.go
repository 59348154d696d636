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

// The exact baselines of §IV-C — the multicore CPU scan, the CUDA-kNN GPU
// and the Kintex-7 FPGA accelerator — all compute the same exact top-k, one
// knn.ScanBatch under the shared (Dist, ID) tie-break, and differ only in
// the time they charge for it. One index serves all three; a registration
// picks its meter.
func init() {
	registerScan(CPU, func(Config) scanMeter {
		p := perfmodel.XeonE5()
		return func(n, queries, dim int) (time.Duration, int64) {
			return perfmodel.CPUTime(p, n, queries, dim), 0
		}
	})
	registerScan(GPU, func(cfg Config) scanMeter {
		p := perfmodel.TitanX()
		if cfg.GPU == TegraK1 {
			p = perfmodel.JetsonTK1()
		}
		return func(n, queries, _ int) (time.Duration, int64) {
			return perfmodel.GPUTime(p, n, queries), 0
		}
	})
	registerScan(FPGA, func(Config) scanMeter {
		p := perfmodel.Kintex7()
		// The accelerator's streamed cycles play the symbol-cycle role.
		return func(n, queries, dim int) (time.Duration, int64) {
			return perfmodel.FPGATime(p, n, queries, dim), perfmodel.FPGACycles(p, n, queries, dim)
		}
	})
}

// scanMeter charges one batch of queries against n vectors of dim bits: the
// platform's modeled time, and the symbol cycles it streams (zero where the
// platform streams none). Excluded vectors are charged too: every platform
// computes the whole distance matrix either way.
type scanMeter func(n, queries, dim int) (modeled time.Duration, symbols int64)

// registerScan registers kind as the exact scan index metered by the meter
// its Config selects.
func registerScan(kind BackendKind, meter func(Config) scanMeter) {
	mustRegister(backendFunc{kind, func(ds *Dataset, cfg Config) (Index, error) {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.NumCPU()
		}
		s := &scanIndex{kind: kind, ds: ds, workers: workers, meter: meter(cfg)}
		s.backendMetrics = newBackendMetrics(&obs.Set{}, s.symbols.Load, nil, s.pairs.Load)
		return s, nil
	}})
}

// scanIndex is an exact baseline served by the blocked parallel Hamming
// kernel (internal/knn's ScanBatch): the packed-word slab is shared out
// block by block across the workers, every query of a batch is scored
// against a block while it is cache-resident (AVX-512 VPOPCNTQ where the
// host has it, math/bits elsewhere), and bounded per-core heaps merge under
// the (Dist, ID) order. Every batch shape — a single query included —
// parallelizes across the dataset, once it is large enough to be worth a
// second core. Modeled time comes from the platform's calibrated model per
// batch, keeping the paper-comparable meter independent of this machine.
type scanIndex struct {
	kind    BackendKind
	ds      *Dataset
	workers int
	meter   scanMeter
	backendMetrics
	modeled atomic.Int64 // nanoseconds
	symbols atomic.Int64
	pairs   atomic.Int64
}

func (s *scanIndex) Search(ctx context.Context, queries []Vector, k int) ([][]Neighbor, error) {
	return s.SearchExcluding(ctx, queries, k, nil)
}

// SearchExcluding implements apstats.ExcludingSearcher.
func (s *scanIndex) SearchExcluding(ctx context.Context, queries []Vector, k int, dead bitvec.Bitset) ([][]Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%s: got k=%d: %w", s.kind, k, aperr.ErrBadK)
	}
	for i, q := range queries {
		if q.Dim() != s.ds.Dim() {
			return nil, fmt.Errorf("%s: query %d dim %d != dataset dim %d: %w", s.kind, i, q.Dim(), s.ds.Dim(), aperr.ErrDimMismatch)
		}
	}
	// The kernel itself is trace-free (per-candidate hot path); one span
	// around the whole scan is all a trace needs. Nil-safe no-op when the
	// context carries no trace.
	ksp := obs.StartSpan(ctx, "kernel_scan")
	res, err := knn.ScanBatch(ctx, s.ds, queries, k, knn.ScanConfig{Workers: s.workers, Exclude: dead})
	ksp.End()
	if err != nil {
		return nil, err
	}
	s.countSearch(len(queries))
	modeled, symbols := s.meter(s.ds.Len(), len(queries), s.ds.Dim())
	s.modeled.Add(int64(modeled))
	s.symbols.Add(symbols)
	s.pairs.Add(int64(s.ds.Len()) * int64(len(queries)))
	return res, nil
}

func (s *scanIndex) ModeledTime() time.Duration { return time.Duration(s.modeled.Load()) }

func (s *scanIndex) Stats() Stats {
	st := s.snapshot(s.kind)
	st.Boards = 1
	return st
}
