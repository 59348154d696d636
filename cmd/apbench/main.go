// Command apbench regenerates every table and figure-level experiment of the
// paper's evaluation section, printing published-vs-reproduced comparisons.
//
//	apbench -table 4          # one table (1-8)
//	apbench -exp util         # a named experiment (util, bandwidth, packing, mux, shard, backends, serve, churn, cluster, overload, hotpath)
//	apbench -all              # everything
//	apbench -exp churn -json bench.json   # also emit machine-readable results
//	apbench -exp hotpath -cpuprofile cpu.pprof   # profile the scan kernel
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	apknn "repro"
	"repro/internal/ap"
	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchRecord is one machine-readable result row of -json output; the
// schema is documented in README ("Machine-readable benchmarks"). Fields
// that do not apply to an experiment are omitted.
type benchRecord struct {
	// Experiment names the sweep the row came from (churn, serve, shard).
	Experiment string `json:"experiment"`
	// Params are the cell coordinates of the sweep (ratio, threshold,
	// window, boards, n, dim, k, ...).
	Params map[string]interface{} `json:"params,omitempty"`
	// ModeledQPS is queries / modeled platform time (every experiment
	// measures it, so a zero is a real measurement, never omitted).
	ModeledQPS float64 `json:"modeled_qps"`
	// HostQPS is queries / host wall-clock; nil when the cell did not
	// measure it. Pointers keep a measured 0 distinguishable from absent.
	HostQPS *float64 `json:"host_qps,omitempty"`
	// P50NS, P90NS and P99NS are request latency percentiles in nanoseconds.
	P50NS *int64 `json:"p50_ns,omitempty"`
	P90NS *int64 `json:"p90_ns,omitempty"`
	P99NS *int64 `json:"p99_ns,omitempty"`
	// Recall is mean recall@k against the exact scan.
	Recall *float64 `json:"recall,omitempty"`
	// NSPerQuery is the measured host nanoseconds per query (hotpath).
	NSPerQuery *int64 `json:"ns_per_query,omitempty"`
	// GBPerSec is the packed-word scan bandwidth the cell sustained.
	GBPerSec *float64 `json:"gb_per_sec,omitempty"`
	// MemFrac is GBPerSec over the same run's streaming-read ceiling (the
	// hotpath memread row of the same worker count): near 1 the cell is
	// memory-bound, above 1 it ran out of cache.
	MemFrac *float64 `json:"mem_frac,omitempty"`
	// Speedup is host speedup versus the cell's Linear oracle baseline.
	Speedup *float64 `json:"speedup,omitempty"`
	// OracleMatch reports whether the cell's results were byte-identical
	// to the Linear oracle (hotpath cells always verify; a false here
	// aborts the run, so persisted rows are always true).
	OracleMatch *bool `json:"oracle_match,omitempty"`
	// AppendNSPerOp is the host cost of one write-ahead-logged insert
	// under fsync=never (churn durability cells).
	AppendNSPerOp *float64 `json:"append_ns_per_op,omitempty"`
	// FsyncNSPerOp is the fsync=always premium on top of AppendNSPerOp.
	FsyncNSPerOp *float64 `json:"fsync_ns_per_op,omitempty"`
	// ReplayMBPerSec is the recovery log-replay rate at reopen.
	ReplayMBPerSec *float64 `json:"replay_mb_per_sec,omitempty"`
	// RecoveryNS is the total close-to-serving reopen time: snapshot load,
	// replay, base compile.
	RecoveryNS *int64 `json:"recovery_ns,omitempty"`
	// TargetP99NS is the overload cell's SLO target (0 for static cells).
	TargetP99NS *int64 `json:"target_p99_ns,omitempty"`
	// ObservedP99NS is the queue-wait p99 over the overload hold phase —
	// the tail the adaptive controller was asked to hold under the target.
	ObservedP99NS *int64 `json:"observed_p99_ns,omitempty"`
	// ShedRate is the fraction of overload arrivals refused with 429.
	ShedRate *float64 `json:"shed_rate,omitempty"`
	// GoodputQPS is successful overload answers per wall-clock second.
	GoodputQPS *float64 `json:"goodput_qps,omitempty"`
}

func fptr(v float64) *float64 { return &v }

func iptr(v int64) *int64 { return &v }

func bptr(v bool) *bool { return &v }

// benchJSON collects benchRecords across experiments and writes the
// BENCH_*.json-style artifact at exit.
type benchJSON struct {
	Schema      string        `json:"schema"`
	GeneratedAt string        `json:"generated_at"`
	Version     string        `json:"version,omitempty"`
	Results     []benchRecord `json:"results"`
}

// recorder is nil unless -json was given; experiments append through record.
var recorder *benchJSON

// quick shrinks experiment grids and measurement targets for CI smoke runs.
var quick bool

func record(r benchRecord) {
	if recorder != nil {
		recorder.Results = append(recorder.Results, r)
	}
}

func main() {
	table := flag.Int("table", 0, "paper table to regenerate (1-8)")
	exp := flag.String("exp", "", "named experiment: util, bandwidth, packing, mux, shard, backends, serve, churn, cluster, overload, hotpath")
	all := flag.Bool("all", false, "run every table and experiment")
	runs := flag.Int("runs", 100, "Monte Carlo repetitions for Table VI")
	jsonPath := flag.String("json", "", "also write machine-readable results (schema apbench/v1) to this path")
	quickFlag := flag.Bool("quick", false, "shrink experiment grids and timing targets (CI smoke)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	regress := flag.String("regress", "", "after the run, compare this run's hotpath cells against a committed apbench/v1 baseline file and exit non-zero on a speedup regression past -regress-band")
	regressBand := flag.Float64("regress-band", 0.25, "allowed relative speedup drop per matched cell for -regress")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()
	quick = *quickFlag
	if *showVersion {
		fmt.Println("apbench", obs.BuildVersion())
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "apbench: cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "apbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "apbench: memprofile:", err)
			}
		}()
	}

	if *jsonPath != "" || *regress != "" {
		recorder = &benchJSON{
			Schema:      "apbench/v1",
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			Version:     obs.BuildVersion(),
		}
	}
	switch {
	case *all:
		for t := 1; t <= 8; t++ {
			runTable(t, *runs)
		}
		for _, e := range []string{"util", "bandwidth", "packing", "mux", "shard", "backends", "serve", "churn", "cluster", "overload", "hotpath"} {
			runExperiment(e)
		}
	case *table != 0:
		runTable(*table, *runs)
	case *exp != "":
		runExperiment(*exp)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if recorder != nil && *jsonPath != "" {
		buf, err := json.MarshalIndent(recorder, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "apbench: encode json:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d result row(s) to %s\n", len(recorder.Results), *jsonPath)
	}
	if *regress != "" {
		if err := regressCheck(*regress, recorder.Results, *regressBand); err != nil {
			fmt.Fprintln(os.Stderr, "apbench: regress:", err)
			os.Exit(1)
		}
	}
}

func runTable(t, runs int) {
	switch t {
	case 1:
		table1()
	case 2:
		table2()
	case 3:
		rt, en := perfmodel.CompareTable3()
		rt.Render(os.Stdout)
		en.Render(os.Stdout)
	case 4:
		rt, en := perfmodel.CompareTable4()
		rt.Render(os.Stdout)
		en.Render(os.Stdout)
	case 5:
		cs := perfmodel.CompareTable5()
		cs.Render(os.Stdout)
	case 6:
		table6(runs)
	case 7:
		cs := perfmodel.CompareTable7()
		cs.Render(os.Stdout)
	case 8:
		cs := perfmodel.CompareTable8()
		cs.Render(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "apbench: unknown table %d (want 1-8)\n", t)
		os.Exit(2)
	}
	fmt.Println()
}

func table1() {
	tb := report.NewTable("Table I: evaluated platforms",
		"platform", "type", "cores", "process (nm)", "clock (MHz)")
	for _, p := range perfmodel.Platforms() {
		cores := fmt.Sprintf("%d", p.Cores)
		if p.Cores == 0 {
			cores = "N/A"
		}
		tb.Row(p.Name, p.Type, cores, p.ProcessNm, p.ClockMHz)
	}
	tb.Render(os.Stdout)
}

func table2() {
	tb := report.NewTable("Table II: kNN workload parameters",
		"workload", "dimensionality", "neighbors", "queries")
	for _, w := range workload.All() {
		tb.Row("kNN-"+w.Name, w.Dim, w.K, w.Queries)
	}
	tb.Render(os.Stdout)
}

func table6(runs int) {
	var cs report.ComparisonSet
	cs.Name = fmt.Sprintf("Table VI: %% incorrect results of statistical activation reduction (p=16, n=1024, %d runs, strict mode)", runs)
	rng := stats.NewRNG(1234)
	for _, w := range workload.All() {
		for _, kPrime := range []int{1, 2, 3, 4} {
			res := core.RunReduction(core.ReductionExperiment{
				Dim: w.Dim, N: 1024, P: 16, K: w.K, KPrime: kPrime,
				Runs: runs, Mode: core.SuppressStrict,
			}, rng)
			cs.Add(fmt.Sprintf("%s k=%d k'=%d", w.Name, w.K, kPrime),
				perfmodel.PaperTable6[w.Name][kPrime], res.IncorrectPercent, "%")
		}
	}
	cs.Render(os.Stdout)
	fmt.Println()

	tb := report.NewTable("Table VI addendum: faithful-hardware mode (see README.md)",
		"config", "incorrect (%)", "bandwidth reduction")
	tb.AlignLeft(0)
	for _, w := range workload.All() {
		for _, kPrime := range []int{1, 2, 3, 4} {
			res := core.RunReduction(core.ReductionExperiment{
				Dim: w.Dim, N: 1024, P: 16, K: w.K, KPrime: kPrime,
				Runs: runs, Mode: core.SuppressFaithful,
			}, rng)
			tb.Row(fmt.Sprintf("%s k=%d k'=%d", w.Name, w.K, kPrime),
				res.IncorrectPercent, fmt.Sprintf("%.1fx", res.BandwidthFactor))
		}
	}
	tb.Render(os.Stdout)
}

func runExperiment(name string) {
	switch name {
	case "util":
		cs, err := perfmodel.CompareUtilization()
		if err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}
		cs.Render(os.Stdout)
	case "bandwidth":
		cs := perfmodel.CompareBandwidth()
		cs.Render(os.Stdout)
	case "packing":
		packingExperiment()
	case "mux":
		muxExperiment()
	case "shard":
		shardExperiment()
	case "backends":
		backendsExperiment()
	case "serve":
		serveExperiment()
	case "churn":
		churnExperiment()
	case "cluster":
		clusterExperiment()
	case "overload":
		overloadExperiment()
	case "hotpath":
		hotpathExperiment()
	default:
		fmt.Fprintf(os.Stderr, "apbench: unknown experiment %q\n", name)
		os.Exit(2)
	}
	fmt.Println()
}

// packingExperiment is the Fig. 5 microbenchmark: place-and-route 8 vectors
// across 32/64/128 dimensions, packed versus plain, reporting STEs and
// routing pressure (§VI-A found packing compile-limited by routing).
func packingExperiment() {
	tb := report.NewTable("Fig. 5 / §VI-A: vector packing microbenchmark (8 vectors)",
		"dims", "plain STEs", "packed STEs", "analytical savings", "plain pressure", "packed pressure")
	rng := stats.NewRNG(77)
	for _, dim := range []int{32, 64, 128} {
		ds := bitvec.RandomDataset(rng, 8, dim)
		l := core.NewLayout(dim)
		plainNet := automata.NewNetwork()
		core.BuildLinear(plainNet, ds, l)
		packedNet := automata.NewNetwork()
		core.BuildPacked(packedNet, ds, l, 0)
		cfg := ap.Gen1()
		plain, err := ap.Compile(plainNet, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}
		packed, err := ap.Compile(packedNet, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}
		tb.Row(dim, plain.STEs, packed.STEs,
			fmt.Sprintf("%.2fx", core.PackingSavings(l, 8)),
			plain.RoutingPressure, packed.RoutingPressure)
	}
	tb.Render(os.Stdout)
}

// shardExperiment sweeps board counts on the sharded multi-board engine:
// the same 64k-vector dataset and query batch answered by 1..8 boards,
// reporting the modeled query time (max across boards), its speedup over
// one board, and the host wall-clock — one kernel scan whatever the fleet
// size, so only the modeled columns scale.
func shardExperiment() {
	const n, dim, nq, k = 1 << 16, 64, 32, 8
	rng := stats.NewRNG(99)
	ds := bitvec.RandomDataset(rng, n, dim)
	queries := workload.Queries(rng, nq, dim)

	tb := report.NewTable(
		fmt.Sprintf("Sharded multi-board scaling (n=%d, d=%d, %d queries, k=%d, Gen 2)", n, dim, nq, k),
		"boards", "configs/board", "modeled time", "modeled speedup", "host wall-clock")
	var serial time.Duration
	for _, boards := range []int{1, 2, 4, 8} {
		eng, err := shard.New(ds, shard.Options{Boards: boards, Fast: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}
		start := time.Now()
		if _, err := eng.Query(context.Background(), queries, k); err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}
		wall := time.Since(start)
		modeled := eng.ModeledTime()
		if boards == 1 {
			serial = modeled
		}
		tb.Row(eng.Shards(),
			fmt.Sprintf("%.1f", float64(eng.Partitions())/float64(eng.Shards())),
			modeled,
			fmt.Sprintf("%.2fx", float64(serial)/float64(modeled)),
			wall.Round(time.Microsecond))
		record(benchRecord{
			Experiment: "shard",
			Params:     map[string]interface{}{"boards": eng.Shards(), "n": n, "dim": dim, "k": k, "queries": nq},
			ModeledQPS: float64(nq) / modeled.Seconds(),
			HostQPS:    fptr(float64(nq) / wall.Seconds()),
		})
	}
	tb.Render(os.Stdout)
}

// backendsExperiment is the paper-style cross-platform table over the
// public Backend surface: the same dataset and query batch answered by
// every registered backend through apknn.Open, reporting the platform's
// modeled time, this machine's host wall-clock, and result quality against
// the exact CPU scan (the comparative framing of Tables III/IV/V).
func backendsExperiment() {
	const n, dim, nq, k, capacity = 2048, 64, 8, 8, 512
	ds := apknn.RandomDataset(444, n, dim)
	queries := apknn.RandomQueries(445, nq, dim)
	exact := apknn.ExactSearch(ds, queries, k, 4)

	cases := []struct {
		name string
		opts []apknn.Option
	}{
		{"ap (Gen 2 sim)", []apknn.Option{apknn.WithBackend(apknn.AP)}},
		{"fast (analytic)", []apknn.Option{apknn.WithBackend(apknn.Fast)}},
		{"sharded x4 (fleet)", []apknn.Option{apknn.WithBackend(apknn.Sharded), apknn.WithBoards(4)}},
		{"cpu (Xeon E5 scan)", []apknn.Option{apknn.WithBackend(apknn.CPU)}},
		{"gpu (Titan X model)", []apknn.Option{apknn.WithBackend(apknn.GPU), apknn.WithGPUModel(apknn.TitanX)}},
		{"gpu (Tegra K1 model)", []apknn.Option{apknn.WithBackend(apknn.GPU), apknn.WithGPUModel(apknn.TegraK1)}},
		{"fpga (Kintex-7 model)", []apknn.Option{apknn.WithBackend(apknn.FPGA)}},
		{"approx (MPLSH)", []apknn.Option{apknn.WithBackend(apknn.Approx), apknn.WithIndex(apknn.LSH), apknn.WithProbes(16)}},
	}

	tb := report.NewTable(
		fmt.Sprintf("Cross-platform backends (n=%d, d=%d, %d queries, k=%d)", n, dim, nq, k),
		"backend", "boards", "modeled time", "host wall-clock", "recall@k", "exact")
	tb.AlignLeft(0)
	ctx := context.Background()
	for _, c := range cases {
		opts := append([]apknn.Option{apknn.WithCapacity(capacity)}, c.opts...)
		idx, err := apknn.Open(ds, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}
		start := time.Now()
		results, err := idx.Search(ctx, queries, k)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}
		wall := time.Since(start)
		recall := 0.0
		identical := true
		for qi := range queries {
			recall += apknn.Recall(results[qi], exact[qi])
			if len(results[qi]) != len(exact[qi]) {
				identical = false
				continue
			}
			for j := range exact[qi] {
				if results[qi][j] != exact[qi][j] {
					identical = false
					break
				}
			}
		}
		st := idx.Stats()
		tb.Row(c.name, st.Boards, idx.ModeledTime(), wall.Round(time.Microsecond),
			fmt.Sprintf("%.2f", recall/float64(len(queries))), identical)
	}
	tb.Render(os.Stdout)
}

// serveExperiment is the serving-layer load test: an in-process apserve
// over the sharded fleet, hammered by closed-loop HTTP clients across a
// concurrency x batch-window sweep. The point is the paper's batching
// argument replayed online: one-query-per-call serving (window 0) pays a
// full reconfiguration sweep per request, while the dynamic micro-batcher
// coalesces concurrent requests into shared sweeps — higher modeled fleet
// throughput at a latency cost bounded by the window.
func serveExperiment() {
	const (
		n, dim, k     = 1 << 15, 64, 8
		reqsPerClient = 40
		maxBatch      = 64
	)
	windows := []time.Duration{0, 2 * time.Millisecond}
	concs := []int{4, 16, 32}

	tb := report.NewTable(
		fmt.Sprintf("HTTP serving: dynamic micro-batching on sharded x4 (n=%d, d=%d, k=%d, %d reqs/client)",
			n, dim, k, reqsPerClient),
		"window", "clients", "mean batch", "fleet QPS (modeled)", "host QPS", "p50", "p90", "p99")
	for _, window := range windows {
		for _, conc := range concs {

			cell, err := runServeCell(n, dim, k, maxBatch, reqsPerClient, window, conc)
			if err != nil {
				fmt.Fprintln(os.Stderr, "apbench:", err)
				os.Exit(1)
			}
			tb.Row(window, conc,
				fmt.Sprintf("%.2f", cell.meanBatch),
				fmt.Sprintf("%.0f", cell.fleetQPS),
				fmt.Sprintf("%.0f", cell.hostQPS),
				cell.p50.Round(time.Microsecond),
				cell.p90.Round(time.Microsecond),
				cell.p99.Round(time.Microsecond))
			record(benchRecord{
				Experiment: "serve",
				Params: map[string]interface{}{
					"window_ns": int64(window), "clients": conc,
					"n": n, "dim": dim, "k": k,
				},
				ModeledQPS: cell.fleetQPS,
				HostQPS:    fptr(cell.hostQPS),
				P50NS:      iptr(int64(cell.p50)),
				P90NS:      iptr(int64(cell.p90)),
				P99NS:      iptr(int64(cell.p99)),
			})
		}
	}
	tb.Render(os.Stdout)
	fmt.Println("fleet QPS (modeled) = queries / modeled AP fleet time: coalesced flushes share one")
	fmt.Println("reconfiguration sweep per batch, so the window converts concurrency into throughput.")
}

type serveCell struct {
	meanBatch     float64
	fleetQPS      float64
	hostQPS       float64
	p50, p90, p99 time.Duration
}

// runServeCell serves one (window, concurrency) point on a fresh index and
// in-process HTTP server so the modeled-time and batcher counters belong
// to this cell alone.
func runServeCell(n, dim, k, maxBatch, reqsPerClient int, window time.Duration, conc int) (serveCell, error) {
	ds := apknn.RandomDataset(777, n, dim)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Sharded), apknn.WithBoards(4))
	if err != nil {
		return serveCell{}, err
	}
	srv := serve.New(idx, serve.Config{
		MaxBatch:    maxBatch,
		BatchWindow: window,
		MaxInFlight: 4 * conc * reqsPerClient, // admission is not under test here
		Dim:         dim,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return serveCell{}, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	// A per-cell transport so this cell's connection pool dies with it: a
	// pooled conn the transport dialed but never used would otherwise sit
	// in StateNew on the server and stall Shutdown's idle-conn sweep.
	transport := &http.Transport{MaxIdleConnsPerHost: conc}
	client := serve.Client{
		BaseURL:    "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: transport},
	}

	queries := apknn.RandomQueries(778, conc*reqsPerClient, dim)
	latencies := make([][]time.Duration, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, reqsPerClient)
			for r := 0; r < reqsPerClient; r++ {
				q := queries[c*reqsPerClient+r]
				t0 := time.Now()
				if _, err := client.Search(context.Background(), q, k); err != nil {
					fmt.Fprintln(os.Stderr, "apbench: serve client:", err)
					os.Exit(1)
				}
				lats = append(lats, time.Since(t0))
			}
			latencies[c] = lats
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	transport.CloseIdleConnections()

	closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(closeCtx); err != nil {
		return serveCell{}, fmt.Errorf("listener shutdown: %w", err)
	}
	if err := srv.Close(closeCtx); err != nil {
		return serveCell{}, fmt.Errorf("serving drain: %w", err)
	}

	all := make([]time.Duration, 0, conc*reqsPerClient)
	for _, lats := range latencies {
		all = append(all, lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	total := float64(len(all))
	modeled := idx.ModeledTime()
	cell := serveCell{
		meanBatch: srv.Stats().MeanBatch,
		hostQPS:   total / wall.Seconds(),
		p50:       all[len(all)/2],
		p90:       all[len(all)*9/10],
		p99:       all[len(all)*99/100],
	}
	if modeled > 0 {
		cell.fleetQPS = total / modeled.Seconds()
	}
	return cell, nil
}

// churnExperiment sweeps dataset churn on the live mutable index: the same
// query load answered while inserts stream in at different insert:query
// ratios, across compaction thresholds. Modeled QPS shows what churn costs
// the platform — delta scans charge the calibrated CPU model, every
// compaction charges a full reconfiguration sweep (the cost the paper's
// model assigns to a dataset change, §III-C) — and recall@k against a
// brute-force mirror of the mutating dataset confirms the merged base +
// delta + tombstone path stays exact. Compactions run synchronously at the
// same threshold the background compactor would use, so the table is
// deterministic.
func churnExperiment() {
	const (
		n0, dim, k = 1 << 13, 64, 8
		nq, batch  = 512, 16
	)
	ratios := []struct {
		name         string
		insPerSearch float64
	}{
		{"1:16", 1.0 / 16}, {"1:4", 1.0 / 4}, {"1:1", 1}, {"4:1", 4},
	}
	thresholds := []int{256, 1024, 4096}

	tb := report.NewTable(
		fmt.Sprintf("Live index churn: insert:query ratio x compaction threshold (n0=%d, d=%d, %d queries, k=%d, Gen 2)",
			n0, dim, nq, k),
		"insert:query", "threshold", "inserts", "compactions", "delta@end", "reconfig time", "modeled QPS", "recall@k")
	for _, r := range ratios {
		for _, threshold := range thresholds {
			cell, err := runChurnCell(n0, dim, k, nq, batch, r.insPerSearch, threshold)
			if err != nil {
				fmt.Fprintln(os.Stderr, "apbench:", err)
				os.Exit(1)
			}
			tb.Row(r.name, threshold, cell.inserts, cell.compactions, cell.deltaEnd,
				cell.reconfig.Round(time.Microsecond),
				fmt.Sprintf("%.0f", cell.modeledQPS),
				fmt.Sprintf("%.2f", cell.recall))
			record(benchRecord{
				Experiment: "churn",
				Params: map[string]interface{}{
					"ratio": r.name, "threshold": threshold,
					"n0": n0, "dim": dim, "k": k, "queries": nq,
				},
				ModeledQPS: cell.modeledQPS,
				Recall:     fptr(cell.recall),
			})
		}
	}
	tb.Render(os.Stdout)
	fmt.Println("modeled QPS = queries / modeled platform time. Inserts land in the exactly-scanned")
	fmt.Println("delta segment; each compaction recompiles the base and charges one reconfiguration")
	fmt.Println("sweep — churn degrades throughput smoothly instead of paying a sweep per insert.")
	fmt.Println()
	churnDurability()
}

// churnDurability measures what the write-ahead log costs the churn path
// and what recovery costs at boot, as a function of log length: host
// nanoseconds per logged insert (append alone, and the fsync premium of
// the always policy on top of it), then the close/reopen replay rate and
// total recovery time over the same directory.
func churnDurability() {
	const (
		n0, dim = 1 << 12, 64
		fsyncN  = 256
	)
	lengths := []int{1 << 10, 1 << 12, 1 << 14}
	if quick {
		lengths = []int{256, 1024}
	}
	ctx := context.Background()

	tb := report.NewTable(
		fmt.Sprintf("Durability: WAL append / fsync cost and recovery vs log length (n0=%d, d=%d, fsync premium over %d synced appends)",
			n0, dim, fsyncN),
		"log records", "wal bytes", "append ns/op", "fsync ns/op", "replay MB/s", "recovery")
	for _, records := range lengths {
		ds := apknn.RandomDataset(909, n0, dim)
		rng := stats.NewRNG(917)
		dir, err := os.MkdirTemp("", "apbench-wal-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		idx, err := apknn.OpenLive(ds,
			apknn.WithBackend(apknn.Fast),
			apknn.WithCompactThreshold(-1), // keep every record in the log
			apknn.WithDurability(dir, apknn.DurabilityOptions{Fsync: apknn.FsyncNever}))
		if err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}
		vecs := make([]apknn.Vector, records)
		for i := range vecs {
			vecs[i] = bitvec.Random(rng, dim)
		}
		start := time.Now()
		for _, v := range vecs {
			if _, err := idx.Insert(ctx, v); err != nil {
				fmt.Fprintln(os.Stderr, "apbench:", err)
				os.Exit(1)
			}
		}
		appendNS := float64(time.Since(start)) / float64(records)
		var walBytes int64
		if d := idx.Stats().Durability; d != nil {
			walBytes = d.WALSize
		}
		if err := idx.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}

		// The fsync premium: the same appends under the always policy pay
		// one fsync each; the difference is the sync, not the write.
		fdir, err := os.MkdirTemp("", "apbench-fsync-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(fdir)
		fidx, err := apknn.OpenLive(ds,
			apknn.WithBackend(apknn.Fast),
			apknn.WithCompactThreshold(-1),
			apknn.WithDurability(fdir, apknn.DurabilityOptions{Fsync: apknn.FsyncAlways}))
		if err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}
		start = time.Now()
		for i := 0; i < fsyncN; i++ {
			if _, err := fidx.Insert(ctx, vecs[i%len(vecs)]); err != nil {
				fmt.Fprintln(os.Stderr, "apbench:", err)
				os.Exit(1)
			}
		}
		fsyncNS := float64(time.Since(start))/fsyncN - appendNS
		if fsyncNS < 0 {
			fsyncNS = 0
		}
		fidx.Close()

		// Recovery: reopen the long log's directory and time the replay.
		start = time.Now()
		back, err := apknn.OpenLive(nil,
			apknn.WithBackend(apknn.Fast),
			apknn.WithCompactThreshold(-1),
			apknn.WithDurability(dir, apknn.DurabilityOptions{Fsync: apknn.FsyncNever}))
		if err != nil {
			fmt.Fprintln(os.Stderr, "apbench:", err)
			os.Exit(1)
		}
		recovery := time.Since(start)
		rec, _ := back.Recovery()
		if !rec.Recovered || back.Len() != n0+records {
			fmt.Fprintf(os.Stderr, "apbench: recovery dropped records: %+v, len %d\n", rec, back.Len())
			os.Exit(1)
		}
		replayMBs := float64(rec.ReplayedBytes) / (1 << 20) / recovery.Seconds()
		back.Close()

		tb.Row(records, walBytes,
			fmt.Sprintf("%.0f", appendNS), fmt.Sprintf("%.0f", fsyncNS),
			fmt.Sprintf("%.1f", replayMBs), recovery.Round(10*time.Microsecond))
		record(benchRecord{
			Experiment: "churn",
			Params: map[string]interface{}{
				"sweep": "durability", "records": records,
				"n0": n0, "dim": dim, "wal_bytes": walBytes,
			},
			AppendNSPerOp:  fptr(appendNS),
			FsyncNSPerOp:   fptr(fsyncNS),
			ReplayMBPerSec: fptr(replayMBs),
			RecoveryNS:     iptr(int64(recovery)),
		})
	}
	tb.Render(os.Stdout)
	fmt.Println("append ns/op logs under fsync=never (the write alone); fsync ns/op is the always-")
	fmt.Println("policy premium per acked insert. Recovery reopens the directory: snapshot load,")
	fmt.Println("log replay at the shown rate, then one base compile — the boot cost a crash buys.")
}

type churnCell struct {
	inserts     int
	compactions int64
	deltaEnd    int
	reconfig    time.Duration
	modeledQPS  float64
	recall      float64
}

// runChurnCell streams interleaved inserts and query batches through one
// live index, compacting synchronously whenever pending churn reaches the
// threshold, then scores recall against a brute-force mirror.
func runChurnCell(n0, dim, k, nq, batch int, insPerSearch float64, threshold int) (churnCell, error) {
	ds := apknn.RandomDataset(909, n0, dim)
	idx, err := apknn.OpenLive(ds,
		apknn.WithBackend(apknn.Fast),
		apknn.WithCompactThreshold(-1)) // synchronous compaction below
	if err != nil {
		return churnCell{}, err
	}
	defer idx.Close()
	ctx := context.Background()

	mirror := bitvec.NewDataset(dim)
	for i := 0; i < n0; i++ {
		mirror.Append(ds.At(i))
	}
	rng := stats.NewRNG(911)
	queries := workload.Queries(rng, nq, dim)
	var cell churnCell
	owed := 0.0
	for qi := 0; qi < nq; qi += batch {
		end := qi + batch
		if end > nq {
			end = nq
		}
		owed += insPerSearch * float64(end-qi)
		for ; owed >= 1; owed-- {
			v := bitvec.Random(rng, dim)
			if _, err := idx.Insert(ctx, v); err != nil {
				return churnCell{}, err
			}
			mirror.Append(v)
			cell.inserts++
		}
		if _, err := idx.Search(ctx, queries[qi:end], k); err != nil {
			return churnCell{}, err
		}
		if ls := idx.Stats().Live; ls.DeltaSize+ls.Tombstones >= threshold {
			if err := idx.Compact(ctx); err != nil {
				return churnCell{}, err
			}
		}
	}
	ls := idx.Stats().Live
	cell.compactions = ls.Compactions
	cell.deltaEnd = ls.DeltaSize
	cell.reconfig = ls.ReconfigTime
	if mt := idx.ModeledTime(); mt > 0 {
		cell.modeledQPS = float64(nq) / mt.Seconds()
	}
	// Recall against the mirror: sample the tail of the query stream.
	sample := queries[nq-32:]
	exact := apknn.ExactSearch(mirror, sample, k, 4)
	got, err := idx.Search(ctx, sample, k)
	if err != nil {
		return churnCell{}, err
	}
	for i := range sample {
		cell.recall += apknn.Recall(got[i], exact[i])
	}
	cell.recall /= float64(len(sample))
	return cell, nil
}

// clusterExperiment sweeps the multi-node tier: the same dataset and
// closed-loop HTTP load routed through aprouter's scatter-gather across
// shards × replicas × hedging. Modeled cluster QPS is queries over the
// slowest node's modeled platform time — the node-granularity version of
// the paper's max-across-boards fleet bound — so adding shards shrinks
// each node's partition and lifts throughput, while replication buys
// fault-tolerance (and hedged tail-cutting) at no modeled-throughput cost
// until hedges start duplicating work.
func clusterExperiment() {
	const (
		n, dim, k     = 1 << 13, 64, 8
		clients, reqs = 12, 25
	)
	ds := apknn.RandomDataset(1234, n, dim)
	queries := apknn.RandomQueries(1235, clients*reqs, dim)

	tb := report.NewTable(
		fmt.Sprintf("Cluster scatter-gather: shards x replicas x hedging (n=%d, d=%d, k=%d, %d clients x %d reqs, fast nodes)",
			n, dim, k, clients, reqs),
		"shards", "replicas", "hedge", "cluster QPS (modeled)", "host QPS", "p50", "p99", "hedges")
	for _, shards := range []int{1, 2, 4} {
		for _, replicas := range []int{1, 2} {
			for _, hedge := range []time.Duration{0, 5 * time.Millisecond} {
				if hedge > 0 && replicas == 1 {
					continue // nothing to hedge to
				}
				cell, err := runClusterCell(ds, queries, shards, replicas, hedge, clients, reqs, k)
				if err != nil {
					fmt.Fprintln(os.Stderr, "apbench:", err)
					os.Exit(1)
				}
				tb.Row(shards, replicas, hedge,
					fmt.Sprintf("%.0f", cell.modeledQPS),
					fmt.Sprintf("%.0f", cell.hostQPS),
					cell.p50.Round(time.Microsecond),
					cell.p99.Round(time.Microsecond),
					cell.hedges)
				record(benchRecord{
					Experiment: "cluster",
					Params: map[string]interface{}{
						"shards": shards, "replicas": replicas, "hedge_ns": int64(hedge),
						"n": n, "dim": dim, "k": k, "clients": clients,
					},
					ModeledQPS: cell.modeledQPS,
					HostQPS:    fptr(cell.hostQPS),
					P50NS:      iptr(int64(cell.p50)),
					P99NS:      iptr(int64(cell.p99)),
				})
			}
		}
	}
	tb.Render(os.Stdout)
	fmt.Println("cluster QPS (modeled) = queries / max-across-nodes modeled time: partitioning the")
	fmt.Println("dataset across shard nodes divides each node's stream+reconfig work, the same")
	fmt.Println("data-parallel decomposition the paper applies across boards (§III-C), one level up.")
}

type clusterCell struct {
	modeledQPS float64
	hostQPS    float64
	p50, p99   time.Duration
	hedges     int64
}

// runClusterCell boots a full in-process cluster — shards × replicas
// apserve nodes plus a router — on loopback listeners, drives the
// closed-loop load through the router, and tears everything down so the
// next cell starts cold.
func runClusterCell(ds *apknn.Dataset, queries []apknn.Vector, shards, replicas int,
	hedge time.Duration, clients, reqs, k int) (clusterCell, error) {
	n := ds.Len()
	chunk := (n + shards - 1) / shards
	m := &cluster.Manifest{}
	var indexes []apknn.Index
	var nodeSrvs []*serve.Server
	var nodeHTTP []*http.Server
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, hs := range nodeHTTP {
			_ = hs.Shutdown(ctx)
		}
		for _, s := range nodeSrvs {
			_ = s.Close(ctx)
		}
	}
	for s := 0; s < shards; s++ {
		lo, hi := s*chunk, (s+1)*chunk
		if hi > n {
			hi = n
		}
		part := ds.Slice(lo, hi)
		sh := cluster.Shard{Base: lo}
		for rep := 0; rep < replicas; rep++ {
			idx, err := apknn.Open(part, apknn.WithBackend(apknn.Fast))
			if err != nil {
				shutdown()
				return clusterCell{}, err
			}
			srv := serve.New(idx, serve.Config{
				Dim:         ds.Dim(),
				NodeID:      fmt.Sprintf("shard%d-%c", s, 'a'+rep),
				Vectors:     part.Len(),
				MaxBatch:    64,
				BatchWindow: time.Millisecond,
				MaxInFlight: 4 * clients * reqs,
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				shutdown()
				return clusterCell{}, err
			}
			hs := &http.Server{Handler: srv.Handler()}
			go func() { _ = hs.Serve(ln) }()
			indexes = append(indexes, idx)
			nodeSrvs = append(nodeSrvs, srv)
			nodeHTTP = append(nodeHTTP, hs)
			sh.Replicas = append(sh.Replicas, "http://"+ln.Addr().String())
		}
		m.Shards = append(m.Shards, sh)
	}
	router, err := cluster.New(m, cluster.Config{
		HedgeDelay:    hedge,
		ProbeInterval: -1, // healthy in-process fleet; skip probe noise
		DefaultK:      k,
		Dim:           ds.Dim(),
	})
	if err != nil {
		shutdown()
		return clusterCell{}, err
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shutdown()
		return clusterCell{}, err
	}
	rsrv := &http.Server{Handler: router.Handler()}
	go func() { _ = rsrv.Serve(rln) }()

	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	client := serve.Client{
		BaseURL:    "http://" + rln.Addr().String(),
		HTTPClient: &http.Client{Transport: transport},
	}
	latencies := make([]time.Duration, clients*reqs)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reqs; r++ {
				i := c*reqs + r
				t0 := time.Now()
				if _, err := client.Search(context.Background(), queries[i], k); err != nil {
					fmt.Fprintln(os.Stderr, "apbench: cluster client:", err)
					os.Exit(1)
				}
				latencies[i] = time.Since(t0)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	transport.CloseIdleConnections()

	closeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rsrv.Shutdown(closeCtx); err != nil {
		shutdown()
		return clusterCell{}, fmt.Errorf("router shutdown: %w", err)
	}
	router.Close()
	shutdown()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	total := float64(len(latencies))
	var slowest time.Duration
	for _, idx := range indexes {
		if mt := idx.ModeledTime(); mt > slowest {
			slowest = mt
		}
	}
	cell := clusterCell{
		hostQPS: total / wall.Seconds(),
		p50:     latencies[len(latencies)/2],
		p99:     latencies[len(latencies)*99/100],
		hedges:  router.Stats().Hedges,
	}
	if slowest > 0 {
		cell.modeledQPS = total / slowest.Seconds()
	}
	return cell, nil
}

// muxExperiment demonstrates §VI-B: seven queries per stream pass at 7x the
// STE cost.
func muxExperiment() {
	rng := stats.NewRNG(88)
	const dim, n = 32, 16
	ds := bitvec.RandomDataset(rng, n, dim)
	l := core.NewLayout(dim)
	tb := report.NewTable("Fig. 6 / §VI-B: symbol stream multiplexing",
		"slices", "STEs", "stream symbols for 14 queries", "throughput gain")
	queries := workload.Queries(rng, 14, dim)
	for _, slices := range []int{1, 2, 4, 7} {
		net := automata.NewNetwork()
		core.BuildMux(net, ds, l, slices)
		stream := core.BuildMuxStream(queries, l, slices)
		tb.Row(slices, net.Stats().STEs, len(stream),
			fmt.Sprintf("%.0fx", core.MuxThroughputGain(slices)))
	}
	tb.Render(os.Stdout)
}

func dedupInts(in []int) []int {
	var out []int
	for _, v := range in {
		seen := false
		for _, o := range out {
			seen = seen || o == v
		}
		if !seen {
			out = append(out, v)
		}
	}
	return out
}

func neighborsIdentical(a, b []knn.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
