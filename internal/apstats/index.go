package apstats

import (
	"context"
	"time"

	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/obs"
)

// BackendKind names a registered compute platform. The built-in kinds cover
// every platform of the paper's evaluation (Table I plus the Table V
// indexing structures); apknn.RegisterBackend adds more.
type BackendKind string

// Index is a compiled dataset ready to serve queries on one backend. All
// implementations are safe for concurrent use.
type Index interface {
	// Search returns the k nearest neighbors of each query,
	// (distance, ID)-sorted with deterministic tie-breaks. The queries are
	// one batch: the paper's configuration sweep is amortised over all of
	// them (§III-C). Cancellation of ctx aborts in-flight work and returns
	// an error wrapping ErrCanceled.
	Search(ctx context.Context, queries []bitvec.Vector, k int) ([][]knn.Neighbor, error)
	// ModeledTime returns the accumulated modeled wall-clock of the
	// platform: max-across-boards streaming plus reconfigurations for the
	// AP backends, the calibrated cost models for CPU/GPU/FPGA/Approx.
	ModeledTime() time.Duration
	// Stats returns a point-in-time snapshot of the serving counters.
	Stats() Stats
}

// ExcludingSearcher is an Index that can leave vectors out of a search, and
// what a live index's base must be: the live index hands it its
// base-resident tombstones. Every built-in backend is one. The kernel-backed
// ones (cpu, fast, sharded, gpu, fpga) refuse a dead candidate where it
// would enter a heap; the simulated ap boards drop a dead vector's reports
// as the host decodes them; the approximate indexes skip a dead candidate
// of a scanned bucket.
type ExcludingSearcher interface {
	Index
	// SearchExcluding is Search over the dataset without the positions in
	// dead — the k nearest of what remains, IDs unchanged. A nil dead is
	// Search; a non-nil one must cover the dataset. The result lists are
	// the caller's to modify. Modeled time and candidate counts are charged
	// as for Search: the platform scores the dead vectors too.
	SearchExcluding(ctx context.Context, queries []bitvec.Vector, k int, dead bitvec.Bitset) ([][]knn.Neighbor, error)
}

// Metered is an Index that owns a metric set: the counters and gauges its
// Stats are filled from, which the server in front of it prints on GET
// /metrics. Every built-in index is one; an Index that is not exports no
// apknn_backend_* series.
type Metered interface {
	Metrics() *obs.Set
}
