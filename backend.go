package apknn

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ap"
	"repro/internal/aperr"
	"repro/internal/apstats"
	"repro/internal/bitvec"
)

// BackendKind names a compute platform. The kinds below are every platform
// of the paper's evaluation (Table I plus the Table V indexing structures),
// and Open knows no others.
type BackendKind = apstats.BackendKind

const (
	// AP is the cycle-accurate Automata Processor simulator: real automata,
	// real report decoding, partial reconfiguration across partitions. With
	// WithBoards(n) it becomes a fleet of simulated boards.
	AP BackendKind = "ap"
	// Fast is the analytic AP: identical results to AP — including
	// tie-breaks — from the exact kernel scan, with the modeled time charged
	// by the board-fleet meter from the same clock/reconfiguration model,
	// minus the cycle-level simulation. Use it for large datasets.
	Fast BackendKind = "fast"
	// Sharded is the scale-out serving fleet: Fast with the dataset
	// partitioned across multiple modeled boards (default 4), all boards
	// streaming every batch concurrently.
	Sharded BackendKind = "sharded"
	// CPU is the exact multi-threaded XOR+POPCOUNT linear scan (§IV-C),
	// with modeled time from the calibrated Xeon E5 cost model.
	CPU BackendKind = "cpu"
	// GPU is the calibrated CUDA-kNN performance model (§IV-C): exact
	// results, modeled launch-plus-pair-cost runtime for a Tegra K1 or
	// Titan X (WithGPUModel).
	GPU BackendKind = "gpu"
	// FPGA is the cycle-level Kintex-7 accelerator model (§IV-C): exact
	// results from systolic priority queues, wall-clock from counted cycles.
	FPGA BackendKind = "fpga"
	// Approx is the approximate-indexing baseline family of Table V: an LSH,
	// hierarchical-k-means or randomized-kd-forest index (WithIndex) whose
	// candidate buckets are scanned exactly (§III-D).
	Approx BackendKind = "approx"
)

// GPUModel selects which calibrated GPU the GPU backend models.
type GPUModel int

const (
	// TitanX is the desktop-class Titan X of Tables III/IV.
	TitanX GPUModel = iota
	// TegraK1 is the embedded Jetson TK1 of Tables III/IV.
	TegraK1
)

// IndexKind selects the approximate index structure of the Approx backend.
type IndexKind int

const (
	// LSH is multi-probe locality-sensitive hashing (MPLSH in Table V).
	LSH IndexKind = iota
	// KMeansTree is the hierarchical k-means tree.
	KMeansTree
	// KDForest is the randomized kd-tree forest.
	KDForest
)

// Config is the resolved option set a backend compiles a dataset with.
// Fields a backend does not understand are ignored — WithBoards means
// nothing to the FPGA model — so one option list can be replayed across
// backends.
type Config struct {
	// Backend is the platform Open dispatches on (default AP).
	Backend BackendKind
	// Generation of the modeled AP board (default Gen2).
	Generation Generation
	// Capacity overrides vectors per board configuration (0 = the paper's
	// §V-A defaults: 1024 for d <= 128, 512 above).
	Capacity int
	// Boards shards the dataset across this many boards (0 = backend
	// default: 1 for AP/Fast, 4 for Sharded).
	Boards int
	// Workers bounds host-side parallelism: how many boards stream at once
	// on the cycle-accurate AP backend, the scan kernel's width on
	// Fast/Sharded (boards are only modeled there) and CPU (0 = one worker
	// per board on AP; elsewhere the kernel's own rule, which keeps a small
	// scan on the caller's goroutine).
	Workers int
	// GPU selects the modeled GPU (default TitanX).
	GPU GPUModel
	// Index selects the approximate index structure (default LSH).
	Index IndexKind
	// Probes bounds how many candidate buckets the Approx backend scans per
	// query (0 = a structure-specific default).
	Probes int
	// Seed drives the randomized index constructions (default 1).
	Seed uint64
	// CompactThreshold is the churn volume (delta inserts + tombstones)
	// that triggers a background compaction on a live index opened with
	// OpenLive (0 = live.DefaultCompactThreshold, negative disables).
	// Backends ignore it.
	CompactThreshold int
	// CompactInterval is the live index's max-staleness timer: pending
	// churn is compacted at least this often (0 disables the timer).
	// Backends ignore it.
	CompactInterval time.Duration
	// DataDir, when set via WithDurability, roots a live index's durable
	// state: a write-ahead log of every mutation plus a snapshot per
	// compaction, recovered on the next OpenLive. Backends and Open ignore
	// it.
	DataDir string
	// Fsync selects when WAL appends reach stable storage on a durable live
	// index (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the flush period under FsyncInterval policy
	// (0 = 100ms).
	FsyncInterval time.Duration
}

// Option configures Open.
type Option func(*Config)

// WithBackend selects the compute platform.
func WithBackend(kind BackendKind) Option { return func(c *Config) { c.Backend = kind } }

// WithGeneration selects the modeled AP hardware generation.
func WithGeneration(g Generation) Option { return func(c *Config) { c.Generation = g } }

// WithCapacity overrides vectors per board configuration.
func WithCapacity(n int) Option { return func(c *Config) { c.Capacity = n } }

// WithBoards shards the dataset across n boards (board-backed backends).
func WithBoards(n int) Option { return func(c *Config) { c.Boards = n } }

// WithWorkers bounds host-side parallelism (see Config.Workers).
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithGPUModel selects the calibrated GPU for the GPU backend.
func WithGPUModel(m GPUModel) Option { return func(c *Config) { c.GPU = m } }

// WithIndex selects the index structure for the Approx backend.
func WithIndex(k IndexKind) Option { return func(c *Config) { c.Index = k } }

// WithProbes bounds candidate buckets scanned per query (Approx backend).
func WithProbes(n int) Option { return func(c *Config) { c.Probes = n } }

// WithSeed seeds the randomized index constructions (Approx backend).
func WithSeed(seed uint64) Option { return func(c *Config) { c.Seed = seed } }

// WithCompactThreshold sets the churn volume that triggers a background
// compaction on a live index (OpenLive). Negative disables the trigger.
func WithCompactThreshold(n int) Option { return func(c *Config) { c.CompactThreshold = n } }

// WithCompactInterval sets the live index's max-staleness compaction timer
// (OpenLive). Zero disables the timer.
func WithCompactInterval(d time.Duration) Option { return func(c *Config) { c.CompactInterval = d } }

// DurabilityOptions tunes the write-ahead log of a durable live index.
type DurabilityOptions struct {
	// Fsync selects when appends reach stable storage (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the flush period under FsyncInterval (0 = 100ms).
	FsyncInterval time.Duration
}

// WithDurability roots a live index (OpenLive) at dir: every acknowledged
// Insert/Delete is write-ahead logged before it becomes searchable, each
// compaction persists a snapshot and truncates the log, and the next
// OpenLive over the same directory recovers the exact pre-crash index —
// identical global IDs, byte-identical search results. Open ignores it.
func WithDurability(dir string, opts DurabilityOptions) Option {
	return func(c *Config) {
		c.DataDir = dir
		c.Fsync = opts.Fsync
		c.FsyncInterval = opts.FsyncInterval
	}
}

// Index is a compiled dataset ready to serve queries on one backend:
// Search, ModeledTime and Stats. All implementations are safe for
// concurrent use.
type Index = apstats.Index

// ExcludingSearcher is an Index whose SearchExcluding leaves the positions
// in a Bitset out of a search. A live index hands its tombstones to its
// base, which every backend's Index can take.
type ExcludingSearcher = apstats.ExcludingSearcher

// Bitset is a set of dataset positions, one bit each.
type Bitset = bitvec.Bitset

// compiler builds one backend's index for a dataset, reading the Config
// fields it understands. It returns an ExcludingSearcher, so every backend
// can be the base of a live index.
type compiler func(*Dataset, Config) (ExcludingSearcher, error)

// compilers is the closed set of backends Open dispatches on: the platforms
// of the paper's evaluation.
var compilers = map[BackendKind]compiler{
	AP:      compileAP,
	Fast:    scanCompiler(Fast, boardFleet(1)),
	Sharded: scanCompiler(Sharded, boardFleet(4)),
	CPU:     scanCompiler(CPU, perBatch(cpuPrice)),
	GPU:     scanCompiler(GPU, perBatch(gpuPrice)),
	FPGA:    scanCompiler(FPGA, perBatch(fpgaPrice)),
	Approx:  newApproxIndex,
}

// Backends lists the backend kinds, sorted.
func Backends() []BackendKind {
	out := make([]BackendKind, 0, len(compilers))
	for k := range compilers {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// resolve applies opts over the defaults and looks up the selected
// backend's compile function; err names an unknown kind. The Config comes
// back either way, so a caller can check its own options first.
func resolve(opts []Option) (cfg Config, compile compiler, err error) {
	cfg = Config{Backend: AP, Seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	compile, ok := compilers[cfg.Backend]
	if !ok {
		err = fmt.Errorf("apknn: %w %q (known: %v)", aperr.ErrUnknownBackend, cfg.Backend, Backends())
	}
	return cfg, compile, err
}

// device is the modeled AP board of the selected generation.
func (c Config) device() ap.DeviceConfig {
	if c.Generation == Gen1 {
		return ap.Gen1()
	}
	return ap.Gen2()
}

// Open compiles ds for the selected backend (default AP) and returns the
// servable index. The dataset must be non-empty; the backend must be one
// of Backends().
func Open(ds *Dataset, opts ...Option) (Index, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("apknn: %w", aperr.ErrEmptyDataset)
	}
	cfg, compile, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	return compile(ds, cfg)
}
