// Command apserve exposes any registered backend over the /v1 HTTP JSON
// API with dynamic micro-batching: concurrent single-query requests are
// coalesced into one backend call per batch window, recreating online the
// large batches the paper's offline evaluation streams (§II-A, §III-C).
//
//	apserve -addr :8080 -backend sharded -boards 4 -n 65536 -dim 64
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/search \
//	    -d '{"query":"1011...","k":4}'
//	curl -s localhost:8080/v1/stats
//
// With -live the index is mutable: POST /v1/insert and /v1/delete apply
// immediately through a delta segment and tombstone set, and a background
// compactor folds the churn into a fresh base compilation once it passes
// -compact-threshold or -compact-interval. -load/-save persist the dataset
// in the binary format instead of synthesizing a new one per boot; with
// -live the shutdown save captures the merged live view (base plus delta
// minus tombstones), not the stale boot dataset.
//
// -data-dir makes a live index durable: every acknowledged mutation is
// write-ahead logged there (-fsync selects the sync policy), compactions
// persist snapshots and truncate the log, and a reboot over the same
// directory recovers the exact pre-crash index — same global IDs, identical
// results. The seed flags (-n/-dim/-seed/-load) only matter on the first
// boot; afterwards the directory is authoritative.
//
// SIGINT/SIGTERM drains: the listener stops accepting, in-flight requests
// and queued micro-batches finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	apknn "repro"
	"repro/internal/knn"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backend := flag.String("backend", "sharded", "compute backend: ap, fast, sharded, cpu, gpu, fpga, approx")
	n := flag.Int("n", 1<<16, "synthetic dataset size")
	dim := flag.Int("dim", 64, "code dimensionality")
	seed := flag.Uint64("seed", 42, "dataset random seed")
	load := flag.String("load", "", "load the dataset from this binary dataset file instead of synthesizing (-n/-dim/-seed ignored)")
	save := flag.String("save", "", "save the served dataset to this binary dataset file at boot")
	gen := flag.Int("gen", 2, "AP generation (1 or 2)")
	capacity := flag.Int("capacity", 0, "vectors per board configuration (0 = paper default)")
	boards := flag.Int("boards", 0, "boards to shard across (0 = backend default)")
	workers := flag.Int("workers", 0, "host-side parallelism (0 = backend default)")
	liveMode := flag.Bool("live", false, "serve a mutable index: enable /v1/insert and /v1/delete with background compaction")
	compactThreshold := flag.Int("compact-threshold", 0, "with -live: churn volume (delta inserts + tombstones) that triggers compaction (0 = default 1024, negative disables)")
	compactInterval := flag.Duration("compact-interval", 30*time.Second, "with -live: max staleness before pending churn is compacted (0 disables the timer)")
	dataDir := flag.String("data-dir", "", "with -live: durable state directory (write-ahead log + snapshots, recovered at boot)")
	fsync := flag.String("fsync", "always", "with -data-dir: WAL sync policy: always, interval or never")
	fsyncInterval := flag.Duration("fsync-interval", 0, "with -fsync interval: flush period (0 = 100ms)")
	maxBatch := flag.Int("batch", 32, "micro-batch size cap (flush when this many queries are pending)")
	window := flag.Duration("batch-window", serve.DefaultBatchWindow,
		"micro-batch flush deadline; 0 disables coalescing")
	maxInFlight := flag.Int("max-inflight", 256, "admission control: concurrent requests before 429")
	maxFlushes := flag.Int("max-flushes", 0, "backend execution slots: concurrent micro-batch flushes (0 = unbounded); waiting for a slot counts as queue wait")
	sloP99 := flag.Duration("slo-p99", 0, "SLO-adaptive admission: hold the windowed queue-wait p99 under this target by shedding load early (0 = static -max-inflight gate)")
	defaultK := flag.Int("k", 10, "neighbors returned when a request omits k")
	nodeID := flag.String("node-id", "", "cluster identity reported in the /v1/stats node block (default: the listen address)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	pprofOn := flag.Bool("pprof", false, obs.PprofFlagDoc)
	anomalyP99 := flag.Duration("anomaly-p99", 0, "anomaly capture: dump a debug bundle when the windowed search p99 breaches 3x this target (0 disables)")
	anomalyProfiles := flag.Bool("anomaly-profiles", false, "anomaly capture: include heap and goroutine pprof profiles in each bundle")
	debugDir := flag.String("debug-dir", "", "anomaly bundle directory (default: <data-dir>/debug)")
	pace := flag.Duration("pace", 0, "testing: artificial delay added to every backend search call, visible as backend-span time in traces")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("apserve", obs.BuildVersion())
		return
	}

	logger, err := obs.NewLogger(*logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apserve:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	generation := apknn.Gen2
	if *gen == 1 {
		generation = apknn.Gen1
	}
	var ds *apknn.Dataset
	if *load != "" {
		var err error
		if ds, err = apknn.LoadDataset(*load); err != nil {
			fatal("load dataset", err)
		}
		logger.Info("dataset loaded", "path", *load, "vectors", ds.Len(), "dim", ds.Dim())
	} else {
		logger.Info("building dataset", "vectors", *n, "dim", *dim, "seed", *seed)
		ds = apknn.RandomDataset(*seed, *n, *dim)
	}
	if *save != "" && !*liveMode {
		if err := apknn.SaveDataset(ds, *save); err != nil {
			fatal("save dataset", err)
		}
		logger.Info("dataset saved", "path", *save)
	}
	opts := []apknn.Option{
		apknn.WithBackend(apknn.BackendKind(*backend)),
		apknn.WithGeneration(generation),
		apknn.WithCapacity(*capacity),
		apknn.WithBoards(*boards),
		apknn.WithWorkers(*workers),
	}
	var idx apknn.Index
	var liveIdx *apknn.LiveIndex
	if *liveMode {
		liveOpts := append(opts,
			apknn.WithCompactThreshold(*compactThreshold),
			apknn.WithCompactInterval(*compactInterval))
		if *dataDir != "" {
			policy, perr := apknn.ParseFsyncPolicy(*fsync)
			if perr != nil {
				fatal("parse fsync policy", perr)
			}
			liveOpts = append(liveOpts, apknn.WithDurability(*dataDir, apknn.DurabilityOptions{
				Fsync:         policy,
				FsyncInterval: *fsyncInterval,
			}))
		}
		liveIdx, err = apknn.OpenLive(ds, liveOpts...)
		idx = liveIdx
	} else {
		if *dataDir != "" {
			fatal("flag validation", errors.New("-data-dir requires -live"))
		}
		idx, err = apknn.Open(ds, opts...)
	}
	if err != nil {
		fatal("open index", err)
	}
	if liveIdx != nil {
		if rec, ok := liveIdx.Recovery(); ok {
			if rec.Recovered {
				logger.Info("recovered durable state",
					"dir", *dataDir,
					"generation", rec.Generation,
					"snapshot_vectors", rec.SnapshotVectors,
					"replayed_records", rec.ReplayedRecords,
					"replayed_bytes", rec.ReplayedBytes,
					"torn_tail", rec.Torn,
					"live_vectors", liveIdx.Len(),
					"next_id", liveIdx.NextID())
			} else {
				logger.Info("seeded durable state", "dir", *dataDir, "fsync", *fsync)
			}
		}
	}
	st := idx.Stats()
	mode := "static"
	if *liveMode {
		threshold := *compactThreshold
		if threshold == 0 {
			threshold = live.DefaultCompactThreshold
		}
		mode = fmt.Sprintf("live (compact threshold %d, interval %v)", threshold, *compactInterval)
	}
	logger.Info("backend ready",
		"backend", string(st.Backend), "boards", st.Boards,
		"partitions", st.Partitions, "mode", mode, "kernel", knn.KernelImpl())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", err)
	}
	id := *nodeID
	if id == "" {
		id = ln.Addr().String()
	}
	vectors := ds.Len()
	if liveIdx != nil {
		vectors = liveIdx.Len() // recovery may have diverged from the seed
	}
	if *pace > 0 {
		idx = paceIndex(idx, liveIdx, *pace)
		logger.Warn("pacing backend calls", "pace", *pace)
	}
	bundleDir := *debugDir
	if bundleDir == "" && *dataDir != "" {
		bundleDir = filepath.Join(*dataDir, "debug")
	}
	cfg := serve.Config{
		MaxBatch:             *maxBatch,
		BatchWindow:          *window,
		MaxInFlight:          *maxInFlight,
		MaxConcurrentFlushes: *maxFlushes,
		SLOTargetP99:         *sloP99,
		DefaultK:             *defaultK,
		Dim:                  ds.Dim(),
		NodeID:               id,
		Addr:                 ln.Addr().String(),
		Vectors:              vectors,
		AnomalyTarget:        *anomalyP99,
		DebugDir:             bundleDir,
		AnomalyProfiles:      *anomalyProfiles,
		AnomalyLog:           logger,
	}
	if *anomalyP99 > 0 && bundleDir == "" {
		fatal("flag validation", errors.New("-anomaly-p99 needs a bundle directory: set -data-dir or -debug-dir"))
	}
	srv := serve.New(idx, cfg)
	handler := srv.Handler()
	if *pprofOn {
		handler = obs.WithPprof(handler)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	httpSrv := &http.Server{Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("serving",
		"addr", ln.Addr().String(), "version", obs.BuildVersion(),
		"batch_cap", *maxBatch, "window", *window,
		"max_inflight", *maxInFlight, "slo_p99", *sloP99)

	select {
	case err := <-errCh:
		fatal("serve", err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("draining", "budget", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop the listener first so handlers finish, then flush the batcher's
	// remaining queue.
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown", "error", err)
	}
	if err := srv.Close(drainCtx); err != nil {
		logger.Error("drain", "error", err)
	}
	if liveIdx != nil {
		if err := liveIdx.Close(); err != nil {
			logger.Error("live close", "error", err)
		}
		if *save != "" {
			// The merged live view — base plus delta minus tombstones — so
			// the saved file matches what the index was actually serving.
			if err := liveIdx.SaveDataset(*save); err != nil {
				logger.Error("save live view", "error", err)
			} else {
				logger.Info("live view saved", "path", *save, "vectors", liveIdx.Len())
			}
		}
		if ls := liveIdx.Stats().Live; ls != nil {
			logger.Info("live index summary",
				"inserts", ls.Inserts, "deletes", ls.Deletes, "compactions", ls.Compactions)
		}
	}
	final := srv.Stats()
	logger.Info("stopped",
		"requests", final.Requests, "flushes", final.Flushes,
		"mean_batch", final.MeanBatch, "rejected", final.Rejected)
}

// pacedIndex is the -pace testing aid: it delays every backend search so a
// test (or a local repro) can manufacture a predictably slow request and
// assert it surfaces in the flight recorder. The sleep lands inside the
// backend span, exactly where a genuinely slow kernel would.
type pacedIndex struct {
	apknn.Index
	pace time.Duration
}

func (p *pacedIndex) Search(ctx context.Context, queries []apknn.Vector, k int) ([][]apknn.Neighbor, error) {
	select {
	case <-time.After(p.pace):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return p.Index.Search(ctx, queries, k)
}

// pacedLive additionally forwards the live index's write surface and sizing
// probes, which serve discovers by type assertion — without these a paced
// live node would silently lose /v1/insert and /v1/delete.
type pacedLive struct {
	pacedIndex
	live *apknn.LiveIndex
}

func (p *pacedLive) Insert(ctx context.Context, v apknn.Vector) (int, error) {
	return p.live.Insert(ctx, v)
}
func (p *pacedLive) Delete(ctx context.Context, id int) error { return p.live.Delete(ctx, id) }
func (p *pacedLive) Len() int                                 { return p.live.Len() }
func (p *pacedLive) NextID() int                              { return p.live.NextID() }

func paceIndex(idx apknn.Index, liveIdx *apknn.LiveIndex, d time.Duration) apknn.Index {
	paced := pacedIndex{Index: idx, pace: d}
	if liveIdx != nil {
		return &pacedLive{pacedIndex: paced, live: liveIdx}
	}
	return &paced
}
