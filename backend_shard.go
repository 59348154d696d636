package apknn

import (
	"context"
	"time"

	"repro/internal/ap"
	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/shard"
)

// The three AP-family backends all compile onto the sharded multi-board
// engine — it is the one query engine of this repository — differing only
// in substrate and default fleet size:
//
//   - AP: cycle-accurate board simulation, 1 board unless WithBoards says
//     otherwise. This is the paper's evaluated configuration. Boards are
//     stateful simulators that stream concurrently; the host decodes their
//     reports, dropping those of excluded vectors, and merges their top-k
//     lists.
//   - Fast: the semantics-equivalent analytic substrate, 1 board by default.
//     The host answers with one blocked kernel scan of the whole dataset,
//     whose heaps refuse excluded vectors; boards and partitions exist only
//     in the modeled columns.
//   - Sharded: the scale-out fleet on the fast substrate, 4 boards by
//     default — the production serving shape. More boards make the modeled
//     AP faster, never the host scan.
func init() {
	mustRegister(backendFunc{AP, func(ds *Dataset, cfg Config) (Index, error) {
		return newShardIndex(ds, cfg, AP, false, 1)
	}})
	mustRegister(backendFunc{Fast, func(ds *Dataset, cfg Config) (Index, error) {
		return newShardIndex(ds, cfg, Fast, true, 1)
	}})
	mustRegister(backendFunc{Sharded, func(ds *Dataset, cfg Config) (Index, error) {
		return newShardIndex(ds, cfg, Sharded, true, 4)
	}})
}

// shardIndex serves one of the AP-family backends through shard.Engine.
type shardIndex struct {
	kind BackendKind
	eng  *shard.Engine
	backendMetrics
}

func newShardIndex(ds *Dataset, cfg Config, kind BackendKind, fast bool, defaultBoards int) (Index, error) {
	boards := cfg.Boards
	if boards == 0 {
		boards = defaultBoards
	}
	device := ap.Gen2()
	if cfg.Generation == Gen1 {
		device = ap.Gen1()
	}
	eng, err := shard.New(ds, shard.Options{
		Boards:   boards,
		Workers:  cfg.Workers,
		Capacity: cfg.Capacity,
		Fast:     fast,
		Config:   device,
	})
	if err != nil {
		return nil, err
	}
	return &shardIndex{kind: kind, eng: eng, backendMetrics: newBackendMetrics(&obs.Set{},
		func() int64 { return int64(eng.SymbolsStreamed()) },
		func() int64 { return int64(eng.Reconfigs()) }, nil)}, nil
}

func (s *shardIndex) Search(ctx context.Context, queries []Vector, k int) ([][]Neighbor, error) {
	return s.SearchExcluding(ctx, queries, k, nil)
}

// SearchExcluding implements apstats.ExcludingSearcher.
func (s *shardIndex) SearchExcluding(ctx context.Context, queries []Vector, k int, dead bitvec.Bitset) ([][]Neighbor, error) {
	res, err := s.eng.QueryExcluding(ctx, queries, k, dead)
	if err != nil {
		return nil, err
	}
	s.countSearch(len(queries))
	return res, nil
}

func (s *shardIndex) ModeledTime() time.Duration { return s.eng.ModeledTime() }

func (s *shardIndex) Stats() Stats {
	st := s.snapshot(s.kind)
	st.Boards = s.eng.Shards()
	st.Partitions = s.eng.Partitions()
	st.PerBoardTime = s.eng.BoardTimes()
	return st
}
