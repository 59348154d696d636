package apknn

import (
	"context"
	"time"

	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/shard"
)

// AP is the cycle-accurate board simulation on shard.Engine's fleet, 1
// board unless WithBoards says otherwise. This is the paper's evaluated
// configuration. Boards are stateful simulators that stream concurrently;
// the host decodes their reports, dropping those of excluded vectors, and
// merges their top-k lists. Its analytic twins, Fast and Sharded, are scan
// indexes metered by the same fleet plan (backend_scan.go).
func compileAP(ds *Dataset, cfg Config) (ExcludingSearcher, error) {
	eng, err := shard.New(ds, fleetOptions(cfg, 1))
	if err != nil {
		return nil, err
	}
	return &shardIndex{eng: eng, backendMetrics: newBackendMetrics(&obs.Set{},
		func() int64 { return int64(eng.SymbolsStreamed()) },
		func() int64 { return int64(eng.Reconfigs()) }, nil)}, nil
}

// fleetOptions is the board fleet a Config asks for: defaultBoards boards
// unless WithBoards names another count, on the selected generation.
func fleetOptions(cfg Config, defaultBoards int) shard.Options {
	boards := cfg.Boards
	if boards == 0 {
		boards = defaultBoards
	}
	return shard.Options{Boards: boards, Workers: cfg.Workers, Capacity: cfg.Capacity, Config: cfg.device()}
}

// shardIndex serves the AP backend through shard.Engine.
type shardIndex struct {
	eng *shard.Engine
	backendMetrics
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
	st := s.snapshot(AP)
	st.Boards = s.eng.Shards()
	st.Partitions = s.eng.Partitions()
	st.PerBoardTime = s.eng.BoardTimes()
	return st
}
