// Package shard is the multi-board fleet: the dataset is partitioned across
// B AP boards on whole board configurations, every board streams the same
// query batch against its own partitions, and the modeled query time is the
// maximum across boards instead of the sum over partitions.
//
// The paper scales past one board configuration with partial
// reconfiguration on a single board (§III-C), which serializes the
// configuration sweep; the real headroom of automata processors is data
// parallelism — multiple chips, ranks or boards answering the same query
// stream over disjoint dataset slices simultaneously.
//
// Two things price a fleet, both planned by Split. Engine is the simulated
// fleet: its boards are real stateful ap.Boards that stream concurrently on
// their own goroutines under a worker bound, and the host merges the
// per-board top-k lists with the deterministic (distance, ID) order every
// engine in this repository shares. Meter is the board-fleet meter of the
// analytic backends (apknn's fast and sharded): dataset IDs are unique, so
// that merge equals one global top-k, the host answers a batch with one
// kernel scan of the whole dataset, and the meter charges every board the
// symbols and reconfigurations its share of the sweep would have cost —
// exactly what Engine's boards count for the same batches. Host wall-clock
// and modeled AP time are separate quantities: a faster host scan never
// makes the modeled board faster.
package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/ap"
	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/knn"
)

// Options configures New and NewMeter.
type Options struct {
	// Boards is the number of boards the dataset is sharded across
	// (default 1). Shard boundaries are aligned to whole board
	// configurations, so a dataset spanning fewer configurations than
	// Boards uses fewer boards.
	Boards int
	// Workers bounds how many of an Engine's boards stream concurrently
	// (default: one worker per board), shared by every concurrent caller of
	// Query on the engine. A Meter streams nothing; it only refuses a
	// negative count.
	Workers int
	// Capacity overrides vectors per board configuration (0 = paper
	// default, see core.DefaultBoardCapacity).
	Capacity int
	// Config is the board variant (zero value = ap.Gen2()).
	Config ap.DeviceConfig
}

// plan is what both fleets resolve from Options: the default stream layout,
// the board variant and each board's dataset range.
type plan struct {
	layout   core.Layout
	capacity int
	cfg      ap.DeviceConfig
	ranges   [][2]int
}

func newPlan(ds *bitvec.Dataset, opts Options) (plan, error) {
	boards := opts.Boards
	if boards == 0 {
		boards = 1
	}
	if boards < 0 {
		return plan{}, fmt.Errorf("shard: board count %d must be positive", boards)
	}
	if opts.Workers < 0 {
		return plan{}, fmt.Errorf("shard: worker count %d must not be negative", opts.Workers)
	}
	layout, err := core.ResolveLayout(ds.Dim(), nil)
	if err != nil {
		return plan{}, err
	}
	capacity, err := core.ResolveCapacity(ds.Dim(), opts.Capacity)
	if err != nil {
		return plan{}, err
	}
	cfg := opts.Config
	if cfg.ClockHz == 0 {
		cfg = ap.Gen2()
	}
	return plan{layout: layout, capacity: capacity, cfg: cfg, ranges: Split(ds.Len(), capacity, boards)}, nil
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

// slowest is a fleet's modeled wall-clock: its boards stream concurrently,
// so the fleet takes as long as its slowest board.
func slowest(boards []time.Duration) time.Duration {
	var max time.Duration
	for _, t := range boards {
		if t > max {
			max = t
		}
	}
	return max
}

// shard is one simulated board and its slice of the dataset. The mutex
// serializes access to the (stateful) board across concurrent callers.
type shard struct {
	mu       sync.Mutex
	engine   *core.Engine
	idOffset int
}

// Engine is the simulated multi-board fleet. It is safe for concurrent use:
// shards serialize their own board access and the worker bound is shared
// across callers.
type Engine struct {
	layout core.Layout
	cfg    ap.DeviceConfig
	shards []*shard
	// ds is what an exclusion set must cover.
	ds *bitvec.Dataset
	// sem bounds how many boards stream at once.
	sem chan struct{}
}

// New shards ds across opts.Boards simulated boards and precompiles every
// shard's board images.
func New(ds *bitvec.Dataset, opts Options) (*Engine, error) {
	p, err := newPlan(ds, opts)
	if err != nil {
		return nil, err
	}
	e := &Engine{layout: p.layout, cfg: p.cfg, ds: ds}
	engOpts := core.EngineOptions{Layout: &p.layout, Capacity: p.capacity}
	for i, r := range p.ranges {
		engine, err := core.NewEngine(ap.NewBoard(p.cfg), ds.Slice(r[0], r[1]), engOpts)
		if err != nil {
			return nil, fmt.Errorf("shard: board %d [%d,%d): %w", i, r[0], r[1], err)
		}
		e.shards = append(e.shards, &shard{engine: engine, idOffset: r[0]})
	}
	workers := opts.Workers
	if workers == 0 || workers > len(e.shards) {
		workers = len(e.shards)
	}
	e.sem = make(chan struct{}, max(workers, 1))
	return e, nil
}

// Shards returns the number of boards actually in use.
func (e *Engine) Shards() int { return len(e.shards) }

// Partitions returns the total board configurations across all shards —
// identical to the serial engine's count for the same dataset and capacity.
func (e *Engine) Partitions() int {
	n := 0
	for _, s := range e.shards {
		n += s.engine.Partitions()
	}
	return n
}

// Query answers a batch of queries with the k nearest neighbors each.
// Results are (distance, ID)-sorted and byte-identical to the serial
// engines'. All shards stream concurrently under the worker bound; a
// canceled ctx stops each board at its next partition boundary, and Query
// then returns an error wrapping aperr.ErrCanceled.
func (e *Engine) Query(ctx context.Context, queries []bitvec.Vector, k int) ([][]knn.Neighbor, error) {
	return e.QueryExcluding(ctx, queries, k, nil)
}

// QueryExcluding is Query over the dataset without the positions in dead,
// which must cover it (see knn.ScanConfig.Exclude). Every board reports all
// of its vectors, and the host drops a dead one's reports as it decodes
// them, before the partition's top-k; the boards are charged as for Query.
func (e *Engine) QueryExcluding(ctx context.Context, queries []bitvec.Vector, k int, dead bitvec.Bitset) ([][]knn.Neighbor, error) {
	batch, err := core.EncodeBatch(queries, e.layout)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("shard: got k=%d: %w", k, aperr.ErrBadK)
	}
	if err := ctx.Err(); err != nil {
		return nil, aperr.Canceled(err)
	}
	if dead != nil && !dead.Covers(e.ds.Len()) {
		return nil, fmt.Errorf("shard: exclusion set covers %d positions, dataset has %d", len(dead)*64, e.ds.Len())
	}
	return e.stream(ctx, batch, k, dead)
}

// stream fans the encoded batch out across all boards and merges the
// per-shard top-k lists in shard order. A canceled ctx keeps queued shards
// from ever acquiring a worker slot and stops streaming shards at their
// next partition boundary.
func (e *Engine) stream(ctx context.Context, batch *core.EncodedBatch, k int, dead bitvec.Bitset) ([][]knn.Neighbor, error) {
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
			perShard[si], errs[si] = s.query(ctx, batch, k, dead)
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

// query executes the batch on one shard's board without the positions in
// dead; the board's vectors start at dataset position idOffset, so its
// reports decode to dataset IDs. The shard mutex serializes board access
// across concurrent callers.
func (s *shard) query(ctx context.Context, batch *core.EncodedBatch, k int, dead bitvec.Bitset) ([][]knn.Neighbor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.QueryEncoded(ctx, batch, k, dead, s.idOffset)
}

// charged returns what board s has counted so far as one consistent pair.
// Safe to call while queries are in flight.
func (s *shard) charged() (symbols, reconfigs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.engine.Board()
	return b.SymbolsStreamed(), b.Reconfigs()
}

// SymbolsStreamed returns total symbols across shards.
func (e *Engine) SymbolsStreamed() int {
	n := 0
	for _, s := range e.shards {
		symbols, _ := s.charged()
		n += symbols
	}
	return n
}

// Reconfigs returns the total board configurations loaded across shards —
// the reconfiguration count the §III-C sweep charges.
func (e *Engine) Reconfigs() int {
	n := 0
	for _, s := range e.shards {
		_, reconfigs := s.charged()
		n += reconfigs
	}
	return n
}

// BoardTimes returns every board's modeled wall-clock for what it counted,
// index-aligned with the shard order. The spread between them shows how
// evenly the configuration sweep divides across the fleet.
func (e *Engine) BoardTimes() []time.Duration {
	out := make([]time.Duration, len(e.shards))
	for i, s := range e.shards {
		out[i] = e.cfg.ModeledTime(s.charged())
	}
	return out
}

// ModeledTime returns the fleet's modeled wall-clock: the maximum across
// boards, since shards stream concurrently.
func (e *Engine) ModeledTime() time.Duration { return slowest(e.BoardTimes()) }
