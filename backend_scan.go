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
	"repro/internal/shard"
)

// scanMeter prices the batches a scan index answers on the platform it
// models.
type scanMeter interface {
	// charge records one answered batch of queries.
	charge(queries int)
	// read fills st's metered columns — symbols, reconfigurations,
	// candidates, boards, partitions and per-board times — from one view
	// of the meter, and returns the modeled time charged so far.
	read(st *Stats) time.Duration
}

// scanCompiler compiles kind as the exact scan index metered by the meter
// newMeter builds for the dataset and Config. Every exact backend but the
// cycle-accurate AP is one: the same top-k, one knn.ScanBatch under the
// shared (Dist, ID) tie-break, differing only in what it charges for it.
// CPU, GPU and FPGA, the exact baselines of §IV-C, charge their platform's
// calibrated model per batch (perBatch). Fast (1 board) and Sharded (4, the
// serving shape) are the analytic AP (boardFleet): the board-fleet meter
// charges every board what its share of the §III-C configuration sweep
// streams and loads, as AP's simulated boards count it. More boards make
// the modeled AP faster, never the host scan.
func scanCompiler(kind BackendKind, newMeter func(*Dataset, Config) (scanMeter, error)) compiler {
	return func(ds *Dataset, cfg Config) (ExcludingSearcher, error) {
		meter, err := newMeter(ds, cfg)
		if err != nil {
			return nil, err
		}
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.NumCPU()
		}
		s := &scanIndex{kind: kind, ds: ds, workers: workers, meter: meter}
		s.backendMetrics = newBackendMetrics(&obs.Set{},
			func() int64 { return s.metered().SymbolsStreamed },
			func() int64 { return s.metered().Reconfigs },
			func() int64 { return s.metered().CandidatesScanned })
		return s, nil
	}
}

// batchPrice is one platform's calibrated model of a batch of queries
// against n vectors of dim bits: its modeled time, and the symbol cycles it
// streams (zero where the platform streams none).
type batchPrice func(cfg Config, n, queries, dim int) (modeled time.Duration, symbols int64)

// cpuPrice, gpuPrice and fpgaPrice price a batch on the Xeon E5, on the
// Titan X or Jetson TK1 (WithGPUModel), and on the Kintex-7.
func cpuPrice(_ Config, n, queries, dim int) (time.Duration, int64) {
	return perfmodel.CPUTime(perfmodel.XeonE5(), n, queries, dim), 0
}

func gpuPrice(cfg Config, n, queries, _ int) (time.Duration, int64) {
	p := perfmodel.TitanX()
	if cfg.GPU == TegraK1 {
		p = perfmodel.JetsonTK1()
	}
	return perfmodel.GPUTime(p, n, queries), 0
}

// fpgaPrice counts the accelerator's streamed cycles as symbol cycles.
func fpgaPrice(_ Config, n, queries, dim int) (time.Duration, int64) {
	p := perfmodel.Kintex7()
	return perfmodel.FPGATime(p, n, queries, dim), perfmodel.FPGACycles(p, n, queries, dim)
}

// perBatch meters a single-device baseline: every batch is charged its
// platform's price, and n candidate pairs per query. Excluded vectors are
// charged too: every platform computes the whole distance matrix either way.
func perBatch(price batchPrice) func(*Dataset, Config) (scanMeter, error) {
	return func(ds *Dataset, cfg Config) (scanMeter, error) {
		return &batchMeter{price: price, cfg: cfg, n: ds.Len(), dim: ds.Dim()}, nil
	}
}

type batchMeter struct {
	price   batchPrice
	cfg     Config
	n, dim  int
	modeled atomic.Int64 // nanoseconds
	symbols atomic.Int64
	pairs   atomic.Int64
}

func (m *batchMeter) charge(queries int) {
	modeled, symbols := m.price(m.cfg, m.n, queries, m.dim)
	m.modeled.Add(int64(modeled))
	m.symbols.Add(symbols)
	m.pairs.Add(int64(m.n) * int64(queries))
}

func (m *batchMeter) read(st *Stats) time.Duration {
	st.Boards = 1
	st.SymbolsStreamed = m.symbols.Load()
	st.CandidatesScanned = m.pairs.Load()
	return time.Duration(m.modeled.Load())
}

// boardFleet meters the analytic AP on a fleet of defaultBoards boards
// unless the Config names another size. It scans no candidates on a board:
// candidates_scanned stays 0, as for the simulated boards.
func boardFleet(defaultBoards int) func(*Dataset, Config) (scanMeter, error) {
	return func(ds *Dataset, cfg Config) (scanMeter, error) {
		m, err := shard.NewMeter(ds, fleetOptions(cfg, defaultBoards))
		if err != nil {
			return nil, err
		}
		return fleetMeter{m}, nil
	}
}

type fleetMeter struct{ *shard.Meter }

func (m fleetMeter) charge(queries int) { m.Charge(queries) }

func (m fleetMeter) read(st *Stats) time.Duration {
	r := m.Read()
	st.Boards, st.Partitions = m.Shards(), m.Partitions()
	st.SymbolsStreamed, st.Reconfigs = int64(r.SymbolsStreamed), int64(r.Reconfigs)
	st.PerBoardTime = r.BoardTimes
	return r.ModeledTime
}

// scanIndex is an exact index served by the blocked parallel Hamming
// kernel (internal/knn's ScanBatch): the packed-word slab is shared out
// block by block across the workers, every query of a batch is scored
// against a block while it is cache-resident (AVX-512 VPOPCNTQ where the
// host has it, math/bits elsewhere), and bounded per-core heaps merge under
// the (Dist, ID) order. Every batch shape — a single query included —
// parallelizes across the dataset, once it is large enough to be worth a
// second core. Modeled time comes from the meter, keeping the
// paper-comparable figure independent of this machine.
type scanIndex struct {
	kind    BackendKind
	ds      *Dataset
	workers int
	meter   scanMeter
	backendMetrics
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
	if err := ctx.Err(); err != nil {
		return nil, aperr.Canceled(err)
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
	s.meter.charge(len(queries))
	return res, nil
}

func (s *scanIndex) ModeledTime() time.Duration {
	var st Stats
	return s.meter.read(&st)
}

// metered is the meter's columns alone.
func (s *scanIndex) metered() (st Stats) {
	s.meter.read(&st)
	return st
}

func (s *scanIndex) Stats() Stats {
	st := Stats{Backend: s.kind, Queries: s.queries.Load(), Batches: s.batches.Load()}
	s.meter.read(&st)
	return st
}
