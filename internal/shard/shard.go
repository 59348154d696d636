// Package shard implements the multi-board query engine: the dataset is
// partitioned across B simulated AP boards on whole board configurations,
// every board streams the same query batch against its own partitions, and
// the modeled query time is the maximum across boards instead of the sum
// over partitions.
//
// The paper scales past one board configuration with partial
// reconfiguration on a single board (§III-C), which serializes the
// configuration sweep; the real headroom of automata processors is data
// parallelism — multiple chips, ranks or boards answering the same query
// stream over disjoint dataset slices simultaneously.
//
// What the host executes depends on the substrate. In sim mode the boards
// are real stateful ap.Boards: they stream concurrently on their own
// goroutines under a worker bound, and the host merges the per-board top-k
// lists with the deterministic (distance, ID) order every engine in this
// repository shares. In fast mode boards are a modeling concept only:
// dataset IDs are unique, so that merge equals one global top-k, and the
// host answers a batch with a single blocked scan of the whole dataset
// (knn.ScanBatch) on the caller's goroutine, then charges every board the
// symbols and reconfigurations its share of the sweep would have cost. Host
// wall-clock and modeled AP time are separate quantities: a faster host
// scan never makes the modeled board faster.
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

// Options configures New.
type Options struct {
	// Boards is the number of simulated boards the dataset is sharded
	// across (default 1). Shard boundaries are aligned to whole board
	// configurations, so a dataset spanning fewer configurations than
	// Boards uses fewer boards.
	Boards int
	// Workers is the host-side parallelism. In sim mode it bounds how many
	// boards stream concurrently (default: one worker per board), shared by
	// every concurrent caller of Query on this engine. In fast
	// mode it is the scan kernel's width, knn.ScanConfig.Workers (default:
	// the kernel's own rule, which keeps a small scan on the caller's
	// goroutine).
	Workers int
	// Capacity overrides vectors per board configuration (0 = paper
	// default, see core.DefaultBoardCapacity).
	Capacity int
	// Layout overrides the default monotonic stream layout.
	Layout *core.Layout
	// Fast answers from Hamming distances with one scan of the dataset
	// instead of cycle-accurate board simulation. Results are identical;
	// modeled time is computed analytically from the same clock and
	// reconfiguration model the boards charge.
	Fast bool
	// Config is the board variant (zero value = ap.Gen2()).
	Config ap.DeviceConfig
}

// shard is one board's slice of the dataset: parts whole configurations. In
// sim mode it also owns the board, whose mutex serializes access to the
// (stateful) board across concurrent callers; in fast mode it is the plan
// entry the meter is charged against and nothing else.
type shard struct {
	parts int

	mu       sync.Mutex
	engine   *core.Engine
	board    *ap.Board
	idOffset int
}

// Engine is the sharded multi-board query engine. It is safe for concurrent
// use: in sim mode shards serialize their own board access and the worker
// bound is shared across callers; in fast mode concurrent scans share
// nothing but the meter.
type Engine struct {
	layout core.Layout
	cfg    ap.DeviceConfig
	fast   bool
	shards []*shard
	// ds is what the kernel scans in fast mode and what an exclusion set
	// must cover in both.
	ds *bitvec.Dataset

	// Sim mode: the boards and the bound on how many stream at once.
	fleet *ap.Fleet
	sem   chan struct{}

	// Fast mode: the kernel's configuration and the modeled-cost meter.
	// Every answered batch is one configuration sweep on every board, so
	// two totals price the whole fleet: board s has streamed
	// s.parts x queries x StreamLen symbols and loaded s.parts x sweeps
	// configurations — ap.Board's accounting, in closed form. The mutex
	// guards the pair (never the scan), so a reader sees no symbols without
	// their reconfigurations.
	scan    knn.ScanConfig
	mu      sync.Mutex
	queries int
	sweeps  int
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
	e := &Engine{layout: layout, cfg: cfg, fast: opts.Fast, ds: ds}
	ranges := Split(ds.Len(), capacity, boards)
	for _, r := range ranges {
		e.shards = append(e.shards, &shard{parts: (r[1] - r[0] + capacity - 1) / capacity, idOffset: r[0]})
	}
	if opts.Fast {
		e.scan = knn.ScanConfig{Workers: opts.Workers}
		return e, nil
	}
	e.fleet = ap.NewFleet(cfg, len(ranges))
	engOpts := core.EngineOptions{Layout: &layout, Capacity: capacity}
	for i, r := range ranges {
		s := e.shards[i]
		s.board = e.fleet.Board(i)
		s.engine, err = core.NewEngine(s.board, ds.Slice(r[0], r[1]), engOpts)
		if err != nil {
			return nil, fmt.Errorf("shard: board %d [%d,%d): %w", i, r[0], r[1], err)
		}
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

// Query answers a batch of queries with the k nearest neighbors each.
// Results are (distance, ID)-sorted and byte-identical to the serial
// engines'. In sim mode all shards stream concurrently under the worker
// bound and a canceled ctx stops each board at its next partition boundary;
// in fast mode the caller's goroutine scans and a canceled ctx stops it at
// the next block. Either way Query then returns an error wrapping
// aperr.ErrCanceled.
func (e *Engine) Query(ctx context.Context, queries []bitvec.Vector, k int) ([][]knn.Neighbor, error) {
	return e.QueryExcluding(ctx, queries, k, nil)
}

// QueryExcluding is Query over the dataset without the positions in dead,
// which must cover it (see knn.ScanConfig.Exclude). The fast substrate
// refuses a dead candidate at the kernel's heap; in sim mode every board
// reports all of its vectors, and the host drops a dead one's reports as it
// decodes them, before the partition's top-k. Either way the boards are
// charged as for Query: they stream every vector.
func (e *Engine) QueryExcluding(ctx context.Context, queries []bitvec.Vector, k int, dead bitvec.Bitset) ([][]knn.Neighbor, error) {
	batch, err := e.prepare(queries)
	if err != nil {
		return nil, err
	}
	return e.run(ctx, batch, k, dead)
}

// run answers one prepared batch without the positions in dead. It is the
// single k-validation point for Query and QueryExcluding.
func (e *Engine) run(ctx context.Context, batch *core.EncodedBatch, k int, dead bitvec.Bitset) ([][]knn.Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("shard: got k=%d: %w", k, aperr.ErrBadK)
	}
	if err := ctx.Err(); err != nil {
		return nil, aperr.Canceled(err)
	}
	if !e.fast {
		if dead != nil && !dead.Covers(e.ds.Len()) {
			return nil, fmt.Errorf("shard: exclusion set covers %d positions, dataset has %d", len(dead)*64, e.ds.Len())
		}
		return e.stream(ctx, batch, k, dead)
	}
	scan := e.scan
	scan.Exclude = dead
	results, err := knn.ScanBatch(ctx, e.ds, batch.Queries(), k, scan)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.queries += batch.Len()
	e.sweeps++
	e.mu.Unlock()
	return results, nil
}

// stream is sim mode's execution: it fans the encoded batch out across all
// boards and merges the per-shard top-k lists in shard order. A canceled ctx
// keeps queued shards from ever acquiring a worker slot and stops streaming
// shards at their next partition boundary.
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
// dead, translating shard-local report IDs into global dataset IDs. The
// shard mutex serializes board access across concurrent callers.
func (s *shard) query(ctx context.Context, batch *core.EncodedBatch, k int, dead bitvec.Bitset) ([][]knn.Neighbor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.engine.QueryEncoded(ctx, batch, k, dead, s.idOffset)
	if err != nil {
		return nil, err
	}
	for _, ns := range res {
		for i := range ns {
			ns[i].ID += s.idOffset
		}
	}
	return res, nil
}

// charged returns what board s has been charged so far as one consistent
// pair: the board's own counters in sim mode, the meter's closed form in
// fast mode. Safe to call while queries are in flight.
func (e *Engine) charged(s *shard) (symbols, reconfigs int) {
	if e.fast {
		e.mu.Lock()
		defer e.mu.Unlock()
		return s.parts * e.queries * e.layout.StreamLen(), s.parts * e.sweeps
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.board.SymbolsStreamed(), s.board.Reconfigs()
}

// SymbolsStreamed returns total symbols across shards (both modes).
func (e *Engine) SymbolsStreamed() int {
	n := 0
	for _, s := range e.shards {
		symbols, _ := e.charged(s)
		n += symbols
	}
	return n
}

// Reconfigs returns the total board configurations loaded across shards
// (both modes) — the reconfiguration count the §III-C sweep charges.
func (e *Engine) Reconfigs() int {
	n := 0
	for _, s := range e.shards {
		_, reconfigs := e.charged(s)
		n += reconfigs
	}
	return n
}

// BoardTimes returns every board's modeled wall-clock for what it was
// charged, index-aligned with the shard order. The spread between them
// shows how evenly the configuration sweep divides across the fleet.
func (e *Engine) BoardTimes() []time.Duration {
	out := make([]time.Duration, len(e.shards))
	for i, s := range e.shards {
		out[i] = e.cfg.ModeledTime(e.charged(s))
	}
	return out
}

// ModeledTime returns the fleet's modeled wall-clock: the maximum across
// boards, since shards stream concurrently.
func (e *Engine) ModeledTime() time.Duration {
	var max time.Duration
	for _, t := range e.BoardTimes() {
		if t > max {
			max = t
		}
	}
	return max
}
