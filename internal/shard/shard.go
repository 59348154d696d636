// Package shard implements the data-parallel multi-board query engine: the
// dataset is partitioned across B simulated AP boards, every board streams
// the same query batch against its own partitions concurrently, and the host
// merges the per-board top-k lists with the deterministic (distance, ID)
// order every engine in this repository shares.
//
// The paper scales past one board configuration with partial
// reconfiguration on a single board (§III-C), which serializes the
// configuration sweep; the real headroom of automata processors is data
// parallelism — multiple chips, ranks or boards answering the same query
// stream over disjoint dataset slices simultaneously. Sharding turns the
// modeled query time from a sum over partitions into a max over boards, and
// (in fast mode) turns million-vector host workloads into parallel scans.
package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/ap"
	"repro/internal/aperr"
	"repro/internal/apstats"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/knn"
)

// Options configures New.
type Options struct {
	// Boards is the number of simulated boards the dataset is sharded
	// across (default 1). Shard boundaries are aligned to whole board
	// configurations, so a dataset spanning fewer configurations than
	// Boards uses fewer boards.
	Boards int
	// Workers bounds how many boards stream concurrently (default: one
	// worker per board). The bound is shared by every concurrent caller of
	// Query/QueryBatch on this engine.
	Workers int
	// Capacity overrides vectors per board configuration (0 = paper
	// default, see core.DefaultBoardCapacity).
	Capacity int
	// Layout overrides the default monotonic stream layout.
	Layout *core.Layout
	// Fast selects the semantics-equivalent fast engine per shard instead
	// of cycle-accurate board simulation. Results are identical; modeled
	// time is computed analytically from the same clock and
	// reconfiguration model the boards charge.
	Fast bool
	// Config is the board variant (zero value = ap.Gen2()).
	Config ap.DeviceConfig
}

// BatchResult is one completed batch of an asynchronous QueryBatch call.
type BatchResult = apstats.BatchResult

// partitionEngine is the per-shard execution substrate: core.Engine on a
// dedicated board, or core.FastEngine.
type partitionEngine interface {
	QueryEncoded(ctx context.Context, batch *core.EncodedBatch, k int) ([][]knn.Neighbor, error)
	Partitions() int
}

// shard is one board's slice of the dataset. Its mutex serializes access to
// the underlying (stateful) board across concurrent callers.
type shard struct {
	mu       sync.Mutex
	engine   partitionEngine
	board    *ap.Board // nil in fast mode
	idOffset int
	size     int
	parts    int
	// fast-mode modeled-cost accounting, mirroring ap.Board's counters.
	symbols   int
	reconfigs int
}

// Engine is the sharded multi-board query engine. It is safe for concurrent
// use: shards serialize their own board access and the worker bound is
// shared across callers.
type Engine struct {
	layout     core.Layout
	cfg        ap.DeviceConfig
	capacity   int
	fast       bool
	datasetLen int
	shards     []*shard
	fleet      *ap.Fleet // nil in fast mode
	sem        chan struct{}
}

// New shards ds across opts.Boards boards and precompiles every shard's
// board images (sim mode) or partition plan (fast mode).
func New(ds *bitvec.Dataset, opts Options) (*Engine, error) {
	boards := opts.Boards
	if boards == 0 {
		boards = 1
	}
	if boards < 0 {
		return nil, fmt.Errorf("shard: board count %d must be positive", boards)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("shard: worker count %d must not be negative", opts.Workers)
	}
	layout, err := core.ResolveLayout(ds.Dim(), opts.Layout)
	if err != nil {
		return nil, err
	}
	capacity, err := core.ResolveCapacity(ds.Dim(), opts.Capacity)
	if err != nil {
		return nil, err
	}
	cfg := opts.Config
	if cfg.ClockHz == 0 {
		cfg = ap.Gen2()
	}
	e := &Engine{
		layout: layout, cfg: cfg, capacity: capacity,
		fast: opts.Fast, datasetLen: ds.Len(),
	}
	ranges := Split(ds.Len(), capacity, boards)
	if !opts.Fast {
		e.fleet = ap.NewFleet(cfg, len(ranges))
	}
	engOpts := core.EngineOptions{Layout: &layout, Capacity: capacity}
	for i, r := range ranges {
		sub := ds.Slice(r[0], r[1])
		s := &shard{idOffset: r[0], size: r[1] - r[0]}
		if opts.Fast {
			s.engine, err = core.NewFastEngine(sub, engOpts)
		} else {
			s.board = e.fleet.Board(i)
			s.engine, err = core.NewEngine(s.board, sub, engOpts)
		}
		if err != nil {
			return nil, fmt.Errorf("shard: board %d [%d,%d): %w", i, r[0], r[1], err)
		}
		s.parts = s.engine.Partitions()
		e.shards = append(e.shards, s)
	}
	workers := opts.Workers
	if workers == 0 || workers > len(e.shards) {
		workers = len(e.shards)
	}
	if workers < 1 {
		workers = 1
	}
	e.sem = make(chan struct{}, workers)
	return e, nil
}

// Split plans the shard boundaries: the dataset's board configurations
// (capacity-sized ranges) are distributed contiguously and as evenly as
// possible across up to boards shards. Boundaries land on whole
// configurations so every shard's partitioning — and therefore its report
// IDs and merge behaviour — is exactly the slice of the serial engine's.
// Shards that would receive no configurations are dropped.
func Split(n, capacity, boards int) [][2]int {
	parts := core.PartitionRanges(n, capacity)
	if boards > len(parts) {
		boards = len(parts)
	}
	var out [][2]int
	for i := 0; i < boards; i++ {
		lo := i * len(parts) / boards
		hi := (i + 1) * len(parts) / boards
		if lo == hi {
			continue
		}
		out = append(out, [2]int{parts[lo][0], parts[hi-1][1]})
	}
	return out
}

// Shards returns the number of boards actually in use.
func (e *Engine) Shards() int { return len(e.shards) }

// Partitions returns the total board configurations across all shards —
// identical to the serial engine's count for the same dataset and capacity.
func (e *Engine) Partitions() int {
	n := 0
	for _, s := range e.shards {
		n += s.parts
	}
	return n
}

// Layout returns the shared stream layout.
func (e *Engine) Layout() core.Layout { return e.layout }

// Fleet returns the underlying boards, or nil in fast mode.
func (e *Engine) Fleet() *ap.Fleet { return e.fleet }

// prepare validates a query batch and, in sim mode, encodes its symbol
// stream once for all boards.
func (e *Engine) prepare(queries []bitvec.Vector) (*core.EncodedBatch, error) {
	if e.fast {
		return core.ValidateBatch(queries, e.layout)
	}
	return core.EncodeBatch(queries, e.layout)
}

// Query answers a batch of queries with the k nearest neighbors each, all
// shards streaming concurrently under the worker bound. Results are
// (distance, ID)-sorted and byte-identical to the serial engines'.
// Cancellation of ctx aborts the in-flight fan-out: boards stop at their
// next partition boundary and Query returns an error wrapping
// aperr.ErrCanceled.
func (e *Engine) Query(ctx context.Context, queries []bitvec.Vector, k int) ([][]knn.Neighbor, error) {
	batch, err := e.prepare(queries)
	if err != nil {
		return nil, err
	}
	return e.run(ctx, batch, k)
}

// QueryBatch answers many batches asynchronously, pipelining query encoding
// against board streaming and report decoding: while the boards stream
// batch i, batch i+1 is already being encoded. Results arrive on the
// returned channel in submission order; the channel is closed after the
// last batch. The engine may be queried concurrently from multiple
// goroutines — the shared worker bound still applies.
//
// Canceling ctx aborts the pipeline promptly: the in-flight batch stops at
// its next partition boundary, every not-yet-started batch is delivered
// with an error wrapping aperr.ErrCanceled, and the channel still closes.
// Results delivered before the cancellation remain valid — the channel is
// buffered for the whole submission, so a consumer can keep draining
// completed batches after canceling.
func (e *Engine) QueryBatch(ctx context.Context, batches [][]bitvec.Vector, k int) <-chan BatchResult {
	type encJob struct {
		idx   int
		batch *core.EncodedBatch
		err   error
	}
	// Buffering the output for every batch means a slow consumer never
	// stalls the boards; pipelineDepth bounds how far encoding runs ahead.
	const pipelineDepth = 2
	enc := make(chan encJob, pipelineDepth)
	out := make(chan BatchResult, len(batches))
	go func() {
		defer close(enc)
		for i, qs := range batches {
			if ctx.Err() != nil {
				// The runner fills in canceled results for the indexes the
				// encoder never produced.
				return
			}
			b, err := e.prepare(qs)
			select {
			case enc <- encJob{idx: i, batch: b, err: err}:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		defer close(out)
		next := 0
		for j := range enc {
			if j.err == nil && ctx.Err() != nil {
				j.err = aperr.Canceled(ctx.Err())
			}
			if j.err != nil {
				out <- BatchResult{Batch: j.idx, Err: j.err}
			} else {
				res, err := e.run(ctx, j.batch, k)
				out <- BatchResult{Batch: j.idx, Results: res, Err: err}
			}
			next = j.idx + 1
		}
		// On cancellation the encoder stops early; deliver the undone tail
		// so consumers always see one result per submitted batch.
		for ; next < len(batches); next++ {
			out <- BatchResult{Batch: next, Err: aperr.Canceled(ctx.Err())}
		}
	}()
	return out
}

// run fans one encoded batch out across all shards and merges the per-shard
// top-k lists in shard order. It is the single k-validation point for both
// Query and QueryBatch. A canceled ctx keeps queued shards from ever
// acquiring a worker slot and stops streaming shards at their next
// partition boundary.
func (e *Engine) run(ctx context.Context, batch *core.EncodedBatch, k int) ([][]knn.Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("shard: got k=%d: %w", k, aperr.ErrBadK)
	}
	if err := ctx.Err(); err != nil {
		return nil, aperr.Canceled(err)
	}
	perShard := make([][][]knn.Neighbor, len(e.shards))
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for si, s := range e.shards {
		wg.Add(1)
		go func(si int, s *shard) {
			defer wg.Done()
			select {
			case e.sem <- struct{}{}:
			case <-ctx.Done():
				errs[si] = aperr.Canceled(ctx.Err())
				return
			}
			defer func() { <-e.sem }()
			perShard[si], errs[si] = s.query(ctx, batch, k, e.layout)
		}(si, s)
	}
	wg.Wait()
	// The context error takes precedence: a canceled fan-out reports the
	// cancellation, not whichever shard happened to observe it first.
	if err := ctx.Err(); err != nil {
		return nil, aperr.Canceled(err)
	}
	for si, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: board %d: %w", si, err)
		}
	}
	results := make([][]knn.Neighbor, batch.Len())
	for qi := range results {
		for si := range e.shards {
			results[qi] = knn.MergeTopK(results[qi], perShard[si][qi], k)
		}
	}
	return results, nil
}

// query executes the batch on one shard, translating shard-local report IDs
// into global dataset IDs. The shard mutex serializes board access across
// concurrent callers; in fast mode it also guards the modeled-cost meter.
func (s *shard) query(ctx context.Context, batch *core.EncodedBatch, k int, l core.Layout) ([][]knn.Neighbor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.engine.QueryEncoded(ctx, batch, k)
	if err != nil {
		return nil, err
	}
	if s.board == nil {
		// Mirror ap.Board's accounting: one reconfiguration and one full
		// batch stream per partition of the configuration sweep.
		s.symbols += s.parts * batch.Len() * l.StreamLen()
		s.reconfigs += s.parts
	}
	for _, ns := range res {
		for i := range ns {
			ns[i].ID += s.idOffset
		}
	}
	return res, nil
}

// modeledTime returns one shard's modeled wall-clock under its mutex — the
// board's own accounting in sim mode, the mirrored analytic model (symbols
// at the stream clock plus reconfigurations beyond the first) in fast mode.
func (s *shard) modeledTime(cfg ap.DeviceConfig) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.board != nil {
		return s.board.ModeledTime()
	}
	t := cfg.StreamTime(s.symbols)
	if s.reconfigs > 1 {
		t += time.Duration(s.reconfigs-1) * cfg.ReconfigLatency
	}
	return t
}

// ModeledTime returns the fleet's modeled wall-clock: the maximum across
// boards, since shards stream concurrently. Safe to call while queries are
// in flight — each shard is sampled under its own lock.
func (e *Engine) ModeledTime() time.Duration {
	var max time.Duration
	for _, s := range e.shards {
		if t := s.modeledTime(e.cfg); t > max {
			max = t
		}
	}
	return max
}

// SymbolsStreamed returns total symbols across shards (both modes).
func (e *Engine) SymbolsStreamed() int {
	n := 0
	for _, s := range e.shards {
		s.mu.Lock()
		if s.board != nil {
			n += s.board.SymbolsStreamed()
		} else {
			n += s.symbols
		}
		s.mu.Unlock()
	}
	return n
}

// Reconfigs returns the total board configurations loaded across shards
// (both modes) — the reconfiguration count the §III-C sweep charges.
func (e *Engine) Reconfigs() int {
	n := 0
	for _, s := range e.shards {
		s.mu.Lock()
		if s.board != nil {
			n += s.board.Reconfigs()
		} else {
			n += s.reconfigs
		}
		s.mu.Unlock()
	}
	return n
}

// BoardTimes returns every board's modeled wall-clock, index-aligned with
// the shard order. ModeledTime is the maximum of these; the spread between
// them shows how evenly the configuration sweep divides across the fleet.
func (e *Engine) BoardTimes() []time.Duration {
	out := make([]time.Duration, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.modeledTime(e.cfg)
	}
	return out
}
