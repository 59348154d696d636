package apknn

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/ap"
	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/live"
	"repro/internal/perfmodel"
	"repro/internal/wal"
)

// LiveIndex is a mutable Index: the compiled base the selected backend
// built, overlaid with a delta segment of recent Inserts and a tombstone
// set of Deletes, recompiled in the background once churn accumulates.
//
// Search answers exactly like a freshly compiled index over the current
// live vector set — base and delta results merge through the shared
// (Dist, ID) tie-break, tombstoned vectors left out by the base and the
// delta scan themselves — and never blocks on
// mutations or on a compaction in flight: the compactor builds the new base
// off to the side and swaps it in behind an atomic pointer (RCU). Modeled
// time stays honest about churn: delta scans charge the calibrated CPU scan
// model, and each compaction charges the backend's reconfiguration sweep
// (partitions x reconfiguration latency for the board-backed backends, the
// cost the paper's model assigns to a dataset change).
type LiveIndex struct {
	kind BackendKind
	eng  *live.Index
	rec  *RecoveryInfo // nil without WithDurability
	// The backend series sit on the engine's own set, beside its
	// apknn_live_* and apknn_wal_* ones.
	backendMetrics
}

// FsyncPolicy selects when a durable live index's write-ahead-log appends
// reach stable storage (WithDurability, apserve -fsync).
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: an acknowledged mutation
	// survives power loss. The default, and the slowest.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a timer (Config.FsyncInterval): a crash loses
	// at most one interval of acknowledged mutations.
	FsyncInterval
	// FsyncNever leaves flushing to the OS page cache: a process crash
	// loses nothing, power loss may lose the unsynced tail.
	FsyncNever
)

// String names the policy the way the -fsync flag spells it.
func (p FsyncPolicy) String() string { return p.wal().String() }

// wal maps the public policy onto the engine's.
func (p FsyncPolicy) wal() wal.SyncPolicy {
	switch p {
	case FsyncInterval:
		return wal.SyncInterval
	case FsyncNever:
		return wal.SyncNever
	default:
		return wal.SyncAlways
	}
}

// ParseFsyncPolicy parses "always", "interval" or "never" — the -fsync flag
// values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("apknn: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// RecoveryInfo reports what a durable OpenLive reconstructed from its
// directory.
type RecoveryInfo = live.RecoveryInfo

// OpenLive compiles ds for the selected backend like Open, but returns a
// mutable index. The seed dataset must not be mutated by the caller
// afterwards; new vectors enter through Insert. Close stops the background
// compactor when the index is no longer needed.
//
// With WithDurability, every mutation is write-ahead logged under the data
// directory and each compaction persists a snapshot there; an OpenLive over
// a directory holding prior state recovers the exact previous index — the
// seed dataset is then only checked for dimensional agreement and may be
// nil. Without durability the seed must be non-empty.
//
// The backend's Index must be an ExcludingSearcher, as every built-in one
// is; OpenLive over a registered backend whose Index is not fails with an
// error naming it.
func OpenLive(ds *Dataset, opts ...Option) (*LiveIndex, error) {
	cfg := Config{Backend: AP, Seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.DataDir == "" && (ds == nil || ds.Len() == 0) {
		return nil, fmt.Errorf("apknn: %w", aperr.ErrEmptyDataset)
	}
	backendsMu.RLock()
	b, ok := backends[cfg.Backend]
	backendsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("apknn: %w %q (registered: %v)", aperr.ErrUnknownBackend, cfg.Backend, Backends())
	}
	compile := func(sub *bitvec.Dataset) (ExcludingSearcher, error) {
		idx, err := b.Compile(sub, cfg)
		if ex, ok := idx.(ExcludingSearcher); ok || err != nil {
			return ex, err
		}
		return nil, fmt.Errorf("apknn: backend %q cannot serve a live index: its Index is not an ExcludingSearcher", cfg.Backend)
	}
	xeon := perfmodel.XeonE5()
	lopts := live.Options{
		CompactThreshold: cfg.CompactThreshold,
		CompactInterval:  cfg.CompactInterval,
		ReconfigCost:     reconfigCost(cfg),
		// Delta scans charge what the CPU backend charges per candidate pair.
		ScanCost: func(n, q, dim int) time.Duration {
			return perfmodel.CPUTime(xeon, n, q, dim)
		},
	}
	l := &LiveIndex{kind: cfg.Backend}
	if cfg.DataDir != "" {
		eng, info, err := live.NewDurable(ds, compile, lopts, live.DurableOptions{
			Dir:          cfg.DataDir,
			Policy:       cfg.Fsync.wal(),
			SyncInterval: cfg.FsyncInterval,
		})
		if err != nil {
			return nil, err
		}
		l.eng, l.rec = eng, &info
	} else {
		eng, err := live.New(ds, compile, lopts)
		if err != nil {
			return nil, err
		}
		l.eng = eng
	}
	l.backendMetrics = newBackendMetrics(l.eng.Metrics(),
		func() int64 { return l.baseStats().SymbolsStreamed },
		func() int64 { return l.baseStats().Reconfigs },
		l.eng.CandidatesScanned)
	return l, nil
}

// reconfigCost models what one compaction's base swap costs: the
// board-backed backends pay one reconfiguration latency per partition of
// the new compilation (the full symbol-replacement sweep of §III-C); the
// single-device cost models (cpu, gpu, fpga, approx) rebuild host-side
// structures the paper's model does not charge device time for.
func reconfigCost(cfg Config) func(partitions int) time.Duration {
	switch cfg.Backend {
	case AP, Fast, Sharded:
	default:
		return nil
	}
	device := ap.Gen2()
	if cfg.Generation == Gen1 {
		device = ap.Gen1()
	}
	return func(partitions int) time.Duration {
		return time.Duration(partitions) * device.ReconfigLatency
	}
}

// Insert appends v to the live index and returns its global ID. IDs
// continue past the seed dataset and are never reused. The vector is
// searchable the moment Insert returns; the compiled base catches up at
// the next compaction.
func (l *LiveIndex) Insert(ctx context.Context, v Vector) (int, error) {
	return l.eng.Insert(ctx, v)
}

// Delete removes the vector with the given global ID from search results
// immediately (tombstone); storage and automata states are reclaimed by the
// next compaction. Deleting an unknown or already-deleted ID returns an
// error wrapping ErrNotFound.
func (l *LiveIndex) Delete(ctx context.Context, id int) error {
	return l.eng.Delete(ctx, id)
}

// Compact synchronously folds pending churn into a fresh base compilation,
// like the background compactor but on the caller's schedule.
func (l *LiveIndex) Compact(ctx context.Context) error { return l.eng.Compact(ctx) }

// Close stops the background compactor (and, when durable, the flush timer)
// and releases the write-ahead-log handle. Closing twice is safe. A
// non-durable index stays searchable and mutable afterwards; a durable one
// stays searchable but rejects further mutations with ErrClosed, because an
// unlogged mutation could not survive a crash.
func (l *LiveIndex) Close() error { return l.eng.Close() }

// Recovery reports what a durable OpenLive reconstructed from its data
// directory; ok is false for an index opened without WithDurability.
func (l *LiveIndex) Recovery() (RecoveryInfo, bool) {
	if l.rec == nil {
		return RecoveryInfo{}, false
	}
	return *l.rec, true
}

// Dataset returns a point-in-time copy of the merged live view — base plus
// delta minus tombstones, in ascending global-ID order, densely renumbered
// from zero. It is the exact vector set searches run against, so compiling
// the copy reproduces identical distances.
func (l *LiveIndex) Dataset() *Dataset { return l.eng.Dataset() }

// SaveDataset writes the merged live view (Dataset) to path in the binary
// dataset format: the saved file round-trips through LoadDataset + Open to
// the same search results the live index returns, instead of silently
// dropping pending delta inserts and resurrecting tombstoned vectors the
// way saving only the compiled base would. Global IDs are densely
// renumbered in the file; preserving them across restarts is what
// WithDurability is for. The file is replaced atomically, as SaveDataset
// does.
func (l *LiveIndex) SaveDataset(path string) error { return saveDataset(wal.OS, l.eng.Dataset(), path) }

// Len returns the number of live (inserted or seed, not deleted) vectors.
func (l *LiveIndex) Len() int { return l.eng.Len() }

// NextID returns the global ID the next Insert will assign — the index's
// ID-space high-water mark. Unlike Len it never shrinks: deletes remove
// vectors but their IDs are never reused, so local IDs span [0, NextID).
// The cluster tier sizes shard ranges from this, not Len, so global IDs
// cannot collide across shards after deletes.
func (l *LiveIndex) NextID() int { return l.eng.NextID() }

// Search implements Index over the current live vector set.
func (l *LiveIndex) Search(ctx context.Context, queries []Vector, k int) ([][]Neighbor, error) {
	res, err := l.eng.Search(ctx, queries, k)
	if err != nil {
		return nil, err
	}
	l.countSearch(len(queries))
	return res, nil
}

// ModeledTime returns the live index's accumulated modeled wall-clock:
// current and retired base generations, delta scans, and compaction
// reconfiguration sweeps.
func (l *LiveIndex) ModeledTime() time.Duration { return l.eng.ModeledTime() }

// baseStats snapshots the current base generation's backend counters, zero
// when every base vector is deleted.
func (l *LiveIndex) baseStats() Stats {
	if b := l.eng.Base(); b != nil {
		return b.Stats()
	}
	return Stats{}
}

// Stats snapshots the current base backend's counters plus the Live block.
// Queries, Batches and CandidatesScanned span the whole live index's
// lifetime (retired generations and delta scans included); the other
// backend counters (symbols, reconfigs, per-board times) belong to the
// current base generation.
func (l *LiveIndex) Stats() Stats {
	st := l.baseStats()
	st.Backend = l.kind
	st.Queries = l.queries.Load()
	st.Batches = l.batches.Load()
	st.CandidatesScanned = l.candidates()
	ls := l.eng.Stats()
	st.Live = &ls
	st.Durability = l.eng.DurStats()
	return st
}

// ReadDataset parses a dataset serialized with Dataset.WriteTo — the binary
// format apknn and apserve persist datasets in (-save/-load).
func ReadDataset(r io.Reader) (*Dataset, error) { return bitvec.ReadDataset(r) }

// LoadDataset reads a dataset file saved with SaveDataset or -save.
func LoadDataset(path string) (*Dataset, error) { return loadDataset(wal.OS, path) }

// SaveDataset writes ds to path in the binary dataset format. The file is
// replaced atomically: a crash or an I/O error at any point leaves path
// holding either the old dataset or the new one.
func SaveDataset(ds *Dataset, path string) error { return saveDataset(wal.OS, ds, path) }

func loadDataset(fsys wal.FS, path string) (ds *Dataset, err error) {
	err = wal.ReadFile(fsys, path, func(r io.Reader) error {
		ds, err = bitvec.ReadDataset(r)
		return err
	})
	return ds, err
}

func saveDataset(fsys wal.FS, ds *Dataset, path string) error {
	return wal.WriteFile(fsys, path, func(w io.Writer) error {
		_, err := ds.WriteTo(w)
		return err
	})
}
