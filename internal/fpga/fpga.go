// Package fpga is a cycle-level model of the paper's FPGA baseline (§IV-C):
// an AXI4-Stream fixed-function kNN accelerator for a Xilinx Kintex-7-325T
// consisting of a scratchpad for query vectors, an XOR/POPCOUNT distance
// unit, and a systolic hardware priority queue, processing multiple queries
// in parallel while dataset vectors are streamed through the core once per
// query batch.
//
// The simulator executes the exact computation (results match the CPU
// baseline bit for bit) and counts cycles with the microarchitectural
// parameters below; wall-clock time is cycles over the 185 MHz clock of
// Table I.
package fpga

import (
	"context"
	"fmt"
	"time"

	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/knn"
)

// Config describes the accelerator instance.
type Config struct {
	// ClockHz is the synthesized clock (Table I: 185 MHz).
	ClockHz float64
	// StreamBits is the AXI4-Stream data width in bits per cycle (512 for a
	// Kintex-7 class memory interface).
	StreamBits int
	// QueryLanes is the number of queries processed in parallel per pass;
	// each lane owns a scratchpad slot, a distance unit and a priority queue.
	QueryLanes int
	// PipelineDepth is the fill latency of the distance + insert pipeline.
	PipelineDepth int
}

// DefaultConfig returns the Kintex-7 baseline configuration. A 64-bit
// stream reproduces the published runtimes within ~30% across all six
// (workload, dataset-size) cells of Tables III/IV.
func DefaultConfig() Config {
	return Config{
		ClockHz:       185e6,
		StreamBits:    64,
		QueryLanes:    16,
		PipelineDepth: 8,
	}
}

// Accelerator simulates the fixed-function core.
type Accelerator struct {
	cfg Config
}

// New returns an accelerator, validating the configuration.
func New(cfg Config) (*Accelerator, error) {
	if cfg.ClockHz <= 0 || cfg.StreamBits <= 0 || cfg.QueryLanes <= 0 {
		return nil, fmt.Errorf("fpga: invalid config %+v", cfg)
	}
	if cfg.PipelineDepth < 0 {
		return nil, fmt.Errorf("fpga: negative pipeline depth")
	}
	return &Accelerator{cfg: cfg}, nil
}

// Result is the output of one accelerated batch.
type Result struct {
	Neighbors [][]knn.Neighbor
	Cycles    int
	Time      time.Duration
}

// Search runs exact kNN for all queries and returns results plus the cycle
// count of the modeled execution. The hardware's systolic priority queues
// keep a (distance, ID)-sorted prefix per lane; the host stand-in gets the
// same lists from the shared scan kernel, one knn.ScanBatch per dataset
// stream pass (one batch of QueryLanes queries), so they are byte-identical
// to the CPU baseline and merge cleanly with any other engine's lists.
// Cancellation is checked in every pass.
func (a *Accelerator) Search(ctx context.Context, ds *bitvec.Dataset, queries []bitvec.Vector, k int) (*Result, error) {
	return a.SearchExcluding(ctx, ds, queries, k, nil)
}

// SearchExcluding is Search over ds without the positions in dead (see
// knn.ScanConfig.Exclude). Cycles and time are Search's: every vector still
// streams past every lane.
func (a *Accelerator) SearchExcluding(ctx context.Context, ds *bitvec.Dataset, queries []bitvec.Vector, k int, dead bitvec.Bitset) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("fpga: got k=%d: %w", k, aperr.ErrBadK)
	}
	for i, q := range queries {
		if q.Dim() != ds.Dim() {
			return nil, fmt.Errorf("fpga: query %d dim %d != dataset dim %d: %w", i, q.Dim(), ds.Dim(), aperr.ErrDimMismatch)
		}
	}
	res := &Result{Neighbors: make([][]knn.Neighbor, 0, len(queries))}
	for lo := 0; lo < len(queries); lo += a.cfg.QueryLanes {
		hi := lo + a.cfg.QueryLanes
		if hi > len(queries) {
			hi = len(queries)
		}
		// Dataset streams once; all lanes consume each vector in parallel.
		lanes, err := knn.ScanBatch(ctx, ds, queries[lo:hi], k, knn.ScanConfig{Exclude: dead})
		if err != nil {
			return nil, err
		}
		res.Neighbors = append(res.Neighbors, lanes...)
	}
	res.Cycles = a.cycles(ds.Len(), ds.Dim(), len(queries))
	res.Time = a.duration(res.Cycles)
	return res, nil
}

// ModelTime returns the modeled wall-clock time without executing, for the
// large-workload tables.
func (a *Accelerator) ModelTime(n, dim, numQueries int) time.Duration {
	return a.duration(a.cycles(n, dim, numQueries))
}

// cycles is the cycle model: per batch of QueryLanes queries, every dataset
// vector streams through once at StreamBits per cycle; distance + queue
// insert are pipelined behind the stream. Loading the batch's queries into
// the scratchpad costs one stream pass of the batch.
func (a *Accelerator) cycles(n, dim, numQueries int) int {
	vecCycles := ceilDiv(dim, a.cfg.StreamBits)
	batches := ceilDiv(numQueries, a.cfg.QueryLanes)
	return batches * (n*vecCycles + a.cfg.PipelineDepth + a.cfg.QueryLanes*vecCycles)
}

func (a *Accelerator) duration(cycles int) time.Duration {
	return time.Duration(float64(cycles) / a.cfg.ClockHz * float64(time.Second))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
