package apknn

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ap"
	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/stats"
)

// approxIndex is the Table V baseline family: an approximate spatial index
// maps each query to candidate buckets, the buckets are scanned exactly,
// and quality is recall — not guaranteed top-k. Bucket size follows the
// board capacity, matching §III-D's "bucket ≈ one AP board configuration".
// Modeled time is the §V-B analytical model: host-side index traversal plus
// one AP bucket load and stream per probe.
type approxIndex struct {
	ds     *Dataset
	idx    index.Index
	probes int
	model  perfmodel.IndexingModel
	device ap.DeviceConfig
	backendMetrics
	scanned atomic.Int64
	modeled atomic.Int64 // nanoseconds
}

func newApproxIndex(ds *Dataset, cfg Config) (ExcludingSearcher, error) {
	capacity, err := core.ResolveCapacity(ds.Dim(), cfg.Capacity)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	models := perfmodel.IndexingModels()
	a := &approxIndex{ds: ds, probes: cfg.Probes, device: cfg.device()}
	a.backendMetrics = newBackendMetrics(&obs.Set{}, nil, nil, a.scanned.Load)
	switch cfg.Index {
	case LSH:
		a.idx, err = index.BuildLSH(ds, index.DefaultLSHConfig(ds.Len(), capacity), rng)
		a.model = models["MPLSH"]
		if a.probes == 0 {
			a.probes = 16
		}
	case KMeansTree:
		a.idx, err = index.BuildKMeansTree(ds, index.DefaultKMeansConfig(capacity), rng)
		a.model = models["K-Means"]
		if a.probes == 0 {
			a.probes = 8
		}
	case KDForest:
		a.idx, err = index.BuildKDForest(ds, index.DefaultKDForestConfig(capacity), rng)
		a.model = models["KD-Tree"]
		if a.probes == 0 {
			a.probes = 9
		}
	default:
		return nil, fmt.Errorf("apknn: unknown index kind %d", int(cfg.Index))
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

func (a *approxIndex) Search(ctx context.Context, queries []Vector, k int) ([][]Neighbor, error) {
	return a.SearchExcluding(ctx, queries, k, nil)
}

// SearchExcluding implements apstats.ExcludingSearcher: a dead candidate is
// scanned with its bucket and then skipped, so candidates and modeled time
// are charged as for Search.
func (a *approxIndex) SearchExcluding(ctx context.Context, queries []Vector, k int, dead bitvec.Bitset) ([][]Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("approx: got k=%d: %w", k, aperr.ErrBadK)
	}
	for i, q := range queries {
		if q.Dim() != a.ds.Dim() {
			return nil, fmt.Errorf("approx: query %d dim %d != dataset dim %d: %w", i, q.Dim(), a.ds.Dim(), aperr.ErrDimMismatch)
		}
	}
	if dead != nil && !dead.Covers(a.ds.Len()) {
		return nil, fmt.Errorf("approx: exclusion set covers %d positions, dataset has %d", len(dead)*64, a.ds.Len())
	}
	results := make([][]Neighbor, len(queries))
	scanned := 0
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, aperr.Canceled(err)
		}
		res, n := index.Search(a.ds, a.idx, q, k, a.probes, dead)
		results[i] = res
		scanned += n
	}
	a.countSearch(len(queries))
	a.scanned.Add(int64(scanned))
	a.modeled.Add(int64(perfmodel.IndexedAPTime(a.device, a.model, a.ds.Len(), len(queries), a.ds.Dim())))
	return results, nil
}

func (a *approxIndex) ModeledTime() time.Duration { return time.Duration(a.modeled.Load()) }

func (a *approxIndex) Stats() Stats {
	st := a.snapshot(Approx)
	st.Boards = 1
	st.Partitions = a.idx.NumBuckets()
	return st
}
