// Command aprouter is the stateless cluster tier over apserve: it
// partitions the dataset across N serving nodes (static range assignment
// recorded in a cluster manifest), scatter-gathers /v1/search and
// /v1/search_batch to every shard concurrently, over-fetches k per shard,
// and merges with the shared (Dist, ID) tie-break — results are
// byte-identical to a single-node index over the union dataset. Replicated
// shards get health-checked replica sets, hedged reads, and bounded 429
// retry; live /v1/insert and /v1/delete traffic routes to the owning
// shard's replicas best-effort with per-replica error reporting.
//
//	apserve -addr :9001 -seed 100 -n 65536 -dim 64 -live &
//	apserve -addr :9002 -seed 100 -n 65536 -dim 64 -live &   # replica of :9001
//	apserve -addr :9003 -seed 200 -n 65536 -dim 64 -live &   # second shard
//	aprouter -addr :8080 -shards "localhost:9001,localhost:9002;localhost:9003" \
//	    -hedge 5ms -write-manifest cluster.json
//	curl -s -X POST localhost:8080/v1/search -d '{"query":"1011...","k":4}'
//	curl -s localhost:8080/v1/stats
//
// Topology comes either from -shards (replicas comma-separated, shards
// semicolon-separated; global-ID bases probed from each shard's /v1/stats
// node block) or from -manifest, a JSON file with explicit bases as written
// by -write-manifest. SIGINT/SIGTERM drains the listener and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	shards := flag.String("shards", "", "topology: replicas comma-separated, shards semicolon-separated, e.g. \"h1:9001,h2:9001;h3:9001\"")
	manifestPath := flag.String("manifest", "", "load the cluster manifest (explicit bases) from this JSON file instead of -shards")
	writeManifest := flag.String("write-manifest", "", "record the resolved manifest to this JSON file at boot")
	hedge := flag.Duration("hedge", 5*time.Millisecond, "hedged reads: fire a second replica after this delay (0 disables)")
	adaptiveHedge := flag.Bool("adaptive-hedge", false, "derive each leg's hedge delay from the primary replica's windowed p99 once it has samples; -hedge is the warm-up fallback")
	probeInterval := flag.Duration("probe-interval", time.Second, "replica health-check period")
	probeTimeout := flag.Duration("probe-timeout", 500*time.Millisecond, "per-probe time budget")
	defaultK := flag.Int("k", 10, "neighbors returned when a request omits k")
	retries := flag.Int("retries", 3, "attempts per replica on saturated (429/503) answers, honoring Retry-After")
	bootTimeout := flag.Duration("boot-timeout", 30*time.Second, "how long to wait for shards to answer the base-resolving probe")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	pprofOn := flag.Bool("pprof", false, obs.PprofFlagDoc)
	nodeID := flag.String("node-id", "", "identity stamped on trace roots and flight-recorder records (default: \"router\")")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("aprouter", obs.BuildVersion())
		return
	}

	logger, err := obs.NewLogger(*logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aprouter:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	var m *cluster.Manifest
	switch {
	case *manifestPath != "" && *shards != "":
		fatal("flag validation", errors.New("-manifest and -shards are mutually exclusive"))
	case *manifestPath != "":
		if m, err = cluster.LoadManifest(*manifestPath); err != nil {
			fatal("load manifest", err)
		}
	case *shards != "":
		if m, err = cluster.ParseTopology(*shards); err != nil {
			fatal("parse topology", err)
		}
		// The nodes may still be booting; retry the probe until the budget
		// runs out so "start everything at once" just works.
		bootCtx, cancel := context.WithTimeout(context.Background(), *bootTimeout)
		for {
			err = m.ResolveBases(bootCtx, nil)
			if err == nil || bootCtx.Err() != nil {
				break
			}
			time.Sleep(200 * time.Millisecond)
		}
		cancel()
		if err != nil {
			fatal("resolve shard bases", err)
		}
	default:
		fatal("flag validation", errors.New("one of -shards or -manifest is required"))
	}
	if *writeManifest != "" {
		if err := m.Save(*writeManifest); err != nil {
			fatal("write manifest", err)
		}
		logger.Info("manifest written", "path", *writeManifest)
	}

	cfg := cluster.Config{
		HedgeDelay:    *hedge,
		AdaptiveHedge: *adaptiveHedge,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		DefaultK:      *defaultK,
		Dim:           m.Dim,
		Retry:         serve.RetryPolicy{MaxAttempts: *retries},
		Logger:        logger,
		NodeID:        *nodeID,
	}
	router, err := cluster.New(m, cfg)
	if err != nil {
		fatal("build router", err)
	}
	for i, sh := range m.Shards {
		logger.Info("shard mapped",
			"shard", i, "base", sh.Base,
			"replicas", len(sh.Replicas), "addrs", fmt.Sprintf("%v", sh.Replicas))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", err)
	}
	handler := router.Handler()
	if *pprofOn {
		handler = withPprof(handler)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	httpSrv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("routing",
		"addr", ln.Addr().String(), "version", obs.BuildVersion(),
		"shards", len(m.Shards), "hedge", *hedge,
		"adaptive_hedge", *adaptiveHedge, "probe_interval", *probeInterval,
		"kernel", knn.KernelImpl())

	select {
	case err := <-errCh:
		fatal("serve", err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("draining", "budget", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown", "error", err)
	}
	router.Close()
	st := router.Stats()
	logger.Info("stopped",
		"searches", st.Searches, "shard_calls", st.ShardCalls,
		"hedges", st.Hedges, "hedge_wins", st.HedgeWins,
		"failovers", st.Failovers, "retries", st.Retries)
}

// withPprof mounts the net/http/pprof handlers in front of the API handler —
// only when -pprof is set, so profiling surface is opt-in.
func withPprof(api http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
