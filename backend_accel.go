package apknn

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/fpga"
	"repro/internal/gpu"
	"repro/internal/obs"
)

// The fixed-function accelerator baselines of §IV-C. Both compute exact
// results — bit-identical to the CPU scan, including the shared
// (distance, ID) tie-break — and accumulate their calibrated performance
// models as ModeledTime.
func init() {
	mustRegister(backendFunc{GPU, func(ds *Dataset, cfg Config) (Index, error) {
		gcfg := gpu.TitanX()
		if cfg.GPU == TegraK1 {
			gcfg = gpu.TegraK1()
		}
		if cfg.Workers > 0 {
			gcfg.Workers = cfg.Workers
		}
		dev, err := gpu.New(gcfg)
		if err != nil {
			return nil, err
		}
		g := &gpuIndex{ds: ds, dev: dev, name: gcfg.Name}
		g.backendMetrics = newBackendMetrics(&obs.Set{}, nil, nil, g.pairs.Load)
		return g, nil
	}})
	mustRegister(backendFunc{FPGA, func(ds *Dataset, cfg Config) (Index, error) {
		acc, err := fpga.New(fpga.DefaultConfig())
		if err != nil {
			return nil, err
		}
		f := &fpgaIndex{ds: ds, acc: acc}
		// The accelerator's streamed cycles play the symbol-cycle role here.
		f.backendMetrics = newBackendMetrics(&obs.Set{}, f.cycles.Load, nil, f.pairs.Load)
		return f, nil
	}})
}

// gpuIndex serves the calibrated CUDA-kNN model.
type gpuIndex struct {
	ds   *Dataset
	dev  *gpu.Device
	name string
	backendMetrics
	modeled atomic.Int64 // nanoseconds
	pairs   atomic.Int64
}

func (g *gpuIndex) Search(ctx context.Context, queries []Vector, k int) ([][]Neighbor, error) {
	return g.SearchExcluding(ctx, queries, k, nil)
}

// SearchExcluding implements apstats.ExcludingSearcher.
func (g *gpuIndex) SearchExcluding(ctx context.Context, queries []Vector, k int, dead bitvec.Bitset) ([][]Neighbor, error) {
	res, err := g.dev.SearchExcluding(ctx, g.ds, queries, k, dead)
	if err != nil {
		return nil, err
	}
	g.countSearch(len(queries))
	g.modeled.Add(int64(res.Time))
	g.pairs.Add(int64(g.ds.Len()) * int64(len(queries)))
	return res.Neighbors, nil
}

func (g *gpuIndex) ModeledTime() time.Duration { return time.Duration(g.modeled.Load()) }

func (g *gpuIndex) Stats() Stats {
	st := g.snapshot(GPU)
	st.Boards = 1
	return st
}

// fpgaIndex serves the cycle-level Kintex-7 accelerator model.
type fpgaIndex struct {
	ds  *Dataset
	acc *fpga.Accelerator
	backendMetrics
	modeled atomic.Int64 // nanoseconds
	cycles  atomic.Int64
	pairs   atomic.Int64
}

func (f *fpgaIndex) Search(ctx context.Context, queries []Vector, k int) ([][]Neighbor, error) {
	return f.SearchExcluding(ctx, queries, k, nil)
}

// SearchExcluding implements apstats.ExcludingSearcher.
func (f *fpgaIndex) SearchExcluding(ctx context.Context, queries []Vector, k int, dead bitvec.Bitset) ([][]Neighbor, error) {
	res, err := f.acc.SearchExcluding(ctx, f.ds, queries, k, dead)
	if err != nil {
		return nil, err
	}
	f.countSearch(len(queries))
	f.modeled.Add(int64(res.Time))
	f.cycles.Add(int64(res.Cycles))
	f.pairs.Add(int64(f.ds.Len()) * int64(len(queries)))
	return res.Neighbors, nil
}

func (f *fpgaIndex) ModeledTime() time.Duration { return time.Duration(f.modeled.Load()) }

func (f *fpgaIndex) Stats() Stats {
	st := f.snapshot(FPGA)
	st.Boards = 1
	return st
}
