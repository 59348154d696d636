// Command apbench regenerates every table and figure-level experiment of the
// paper's evaluation section, printing published-vs-reproduced comparisons.
// Everything it prints is the model — a pure function of its seeds — except
// -exp hotpath, the kernel-vs-oracle wall-clock sweep that BENCH_hotpath.json
// gates. Host time end to end and per layer is bench/'s job, not this one's.
//
//	apbench -table 4          # one table (1-8)
//	apbench -exp util         # a named experiment (-help lists them)
//	apbench -all              # everything
//	apbench -exp churn -json bench.json   # also emit machine-readable results
//	apbench -exp hotpath -cpuprofile cpu.pprof   # profile the scan kernel
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	apknn "repro"
	"repro/internal/ap"
	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchRecord is one machine-readable result row of -json output; the
// schema is documented in README ("Machine-readable benchmarks"). Fields
// that do not apply to an experiment are omitted.
type benchRecord struct {
	// Experiment names the sweep the row came from (churn, shard, hotpath).
	Experiment string `json:"experiment"`
	// Params are the cell coordinates of the sweep (ratio, threshold,
	// boards, n, dim, k, ...).
	Params map[string]interface{} `json:"params,omitempty"`
	// ModeledQPS is queries / modeled platform time (every experiment
	// measures it, so a zero is a real measurement, never omitted).
	ModeledQPS float64 `json:"modeled_qps"`
	// HostQPS is queries / host wall-clock (hotpath); nil when the cell did
	// not measure it. Pointers keep a measured 0 distinguishable from absent.
	HostQPS *float64 `json:"host_qps,omitempty"`
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

// recorder is nil unless -json or -regress was given; experiments append
// through record.
var recorder *benchJSON

// quick shrinks the hotpath grid for CI smoke runs.
var quick bool

func record(r benchRecord) {
	if recorder != nil {
		recorder.Results = append(recorder.Results, r)
	}
}

// experiments is the one list of named experiments, in -all order: the -exp
// help text, -all and dispatch all read it.
var experiments = []struct {
	name string
	run  func(w io.Writer) error
}{
	{"util", func(w io.Writer) error {
		cs, err := perfmodel.CompareUtilization()
		if err != nil {
			return err
		}
		cs.Render(w)
		return nil
	}},
	{"bandwidth", func(w io.Writer) error {
		cs := perfmodel.CompareBandwidth()
		cs.Render(w)
		return nil
	}},
	{"packing", packingExperiment},
	{"mux", muxExperiment},
	{"shard", shardExperiment},
	{"backends", backendsExperiment},
	{"churn", churnExperiment},
	{"hotpath", hotpathExperiment},
}

func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

func main() {
	table := flag.Int("table", 0, "paper table to regenerate (1-8)")
	exp := flag.String("exp", "", "named experiment: "+experimentNames())
	all := flag.Bool("all", false, "run every table and experiment")
	runs := flag.Int("runs", 100, "Monte Carlo repetitions for Table VI")
	jsonPath := flag.String("json", "", "also write machine-readable results (schema apbench/v1) to this path")
	quickFlag := flag.Bool("quick", false, "shrink the hotpath grid and timing targets (CI smoke)")
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
	var err error
	switch {
	case *all:
		err = runAll(os.Stdout, *runs)
	case *table != 0:
		err = runTable(os.Stdout, *table, *runs)
	case *exp != "":
		err = runExperiment(os.Stdout, *exp)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "apbench:", err)
		if errors.Is(err, errUnknown) {
			os.Exit(2)
		}
		os.Exit(1)
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

// errUnknown marks a -table or -exp value that names nothing: a usage error
// (exit 2), where a failed experiment exits 1.
var errUnknown = errors.New("unknown")

// runTable renders paper table t (1-8) and a blank line after it.
func runTable(w io.Writer, t, runs int) error {
	switch t {
	case 1:
		table1(w)
	case 2:
		table2(w)
	case 3:
		rt, en := perfmodel.CompareTable3()
		rt.Render(w)
		en.Render(w)
	case 4:
		rt, en := perfmodel.CompareTable4()
		rt.Render(w)
		en.Render(w)
	case 5:
		cs := perfmodel.CompareTable5()
		cs.Render(w)
	case 6:
		table6(w, runs)
	case 7:
		cs := perfmodel.CompareTable7()
		cs.Render(w)
	case 8:
		cs := perfmodel.CompareTable8()
		cs.Render(w)
	default:
		return fmt.Errorf("%w table %d (want 1-8)", errUnknown, t)
	}
	fmt.Fprintln(w)
	return nil
}

func table1(w io.Writer) {
	tb := report.NewTable("Table I: evaluated platforms",
		"platform", "type", "cores", "process (nm)", "clock (MHz)")
	for _, p := range perfmodel.Platforms() {
		cores := fmt.Sprintf("%d", p.Cores)
		if p.Cores == 0 {
			cores = "N/A"
		}
		tb.Row(p.Name, p.Type, cores, p.ProcessNm, p.ClockMHz)
	}
	tb.Render(w)
}

func table2(w io.Writer) {
	tb := report.NewTable("Table II: kNN workload parameters",
		"workload", "dimensionality", "neighbors", "queries")
	for _, wl := range workload.All() {
		tb.Row("kNN-"+wl.Name, wl.Dim, wl.K, wl.Queries)
	}
	tb.Render(w)
}

func table6(w io.Writer, runs int) {
	var cs report.ComparisonSet
	cs.Name = fmt.Sprintf("Table VI: %% incorrect results of statistical activation reduction (p=16, n=1024, %d runs, strict mode)", runs)
	rng := stats.NewRNG(1234)
	for _, wl := range workload.All() {
		for _, kPrime := range []int{1, 2, 3, 4} {
			res := core.RunReduction(core.ReductionExperiment{
				Dim: wl.Dim, N: 1024, P: 16, K: wl.K, KPrime: kPrime,
				Runs: runs, Mode: core.SuppressStrict,
			}, rng)
			cs.Add(fmt.Sprintf("%s k=%d k'=%d", wl.Name, wl.K, kPrime),
				perfmodel.PaperTable6[wl.Name][kPrime], res.IncorrectPercent, "%")
		}
	}
	cs.Render(w)
	fmt.Fprintln(w)

	tb := report.NewTable("Table VI addendum: faithful-hardware mode (see README.md)",
		"config", "incorrect (%)", "bandwidth reduction")
	tb.AlignLeft(0)
	for _, wl := range workload.All() {
		for _, kPrime := range []int{1, 2, 3, 4} {
			res := core.RunReduction(core.ReductionExperiment{
				Dim: wl.Dim, N: 1024, P: 16, K: wl.K, KPrime: kPrime,
				Runs: runs, Mode: core.SuppressFaithful,
			}, rng)
			tb.Row(fmt.Sprintf("%s k=%d k'=%d", wl.Name, wl.K, kPrime),
				res.IncorrectPercent, fmt.Sprintf("%.1fx", res.BandwidthFactor))
		}
	}
	tb.Render(w)
}

// runAll is -all: every table, then every experiment.
func runAll(w io.Writer, runs int) error {
	for t := 1; t <= 8; t++ {
		if err := runTable(w, t, runs); err != nil {
			return err
		}
	}
	for _, e := range experiments {
		if err := runExperiment(w, e.name); err != nil {
			return err
		}
	}
	return nil
}

// runExperiment runs the named experiment and a blank line after it.
func runExperiment(w io.Writer, name string) error {
	for _, e := range experiments {
		if e.name == name {
			if err := e.run(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return nil
		}
	}
	return fmt.Errorf("%w experiment %q (want one of: %s)", errUnknown, name, experimentNames())
}

// packingExperiment is the Fig. 5 microbenchmark: place-and-route 8 vectors
// across 32/64/128 dimensions, packed versus plain, reporting STEs and
// routing pressure (§VI-A found packing compile-limited by routing).
func packingExperiment(w io.Writer) error {
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
			return err
		}
		packed, err := ap.Compile(packedNet, cfg)
		if err != nil {
			return err
		}
		tb.Row(dim, plain.STEs, packed.STEs,
			fmt.Sprintf("%.2fx", core.PackingSavings(l, 8)),
			plain.RoutingPressure, packed.RoutingPressure)
	}
	tb.Render(w)
	return nil
}

// shardExperiment sweeps board counts on the sharded multi-board engine:
// the same 64k-vector dataset and query batch answered by 1..8 boards,
// reporting the modeled query time (max across boards) and its speedup over
// one board. (The host answers with one kernel scan whatever the fleet size,
// so there is no host column to scale.)
func shardExperiment(w io.Writer) error {
	const n, dim, nq, k = 1 << 16, 64, 32, 8
	rng := stats.NewRNG(99)
	ds := bitvec.RandomDataset(rng, n, dim)
	queries := workload.Queries(rng, nq, dim)

	tb := report.NewTable(
		fmt.Sprintf("Sharded multi-board scaling (n=%d, d=%d, %d queries, k=%d, Gen 2)", n, dim, nq, k),
		"boards", "configs/board", "modeled time", "modeled speedup")
	var serial time.Duration
	for _, boards := range []int{1, 2, 4, 8} {
		eng, err := shard.New(ds, shard.Options{Boards: boards, Fast: true})
		if err != nil {
			return err
		}
		if _, err := eng.Query(context.Background(), queries, k); err != nil {
			return err
		}
		modeled := eng.ModeledTime()
		if boards == 1 {
			serial = modeled
		}
		tb.Row(eng.Shards(),
			fmt.Sprintf("%.1f", float64(eng.Partitions())/float64(eng.Shards())),
			modeled,
			fmt.Sprintf("%.2fx", float64(serial)/float64(modeled)))
		record(benchRecord{
			Experiment: "shard",
			Params:     map[string]interface{}{"boards": eng.Shards(), "n": n, "dim": dim, "k": k, "queries": nq},
			ModeledQPS: float64(nq) / modeled.Seconds(),
		})
	}
	tb.Render(w)
	return nil
}

// backendsExperiment is the paper-style cross-platform table over the
// public Backend surface: the same dataset and query batch answered by
// every registered backend through apknn.Open, reporting the platform's
// modeled time and result quality against the exact CPU scan (the
// comparative framing of Tables III/IV/V).
func backendsExperiment(w io.Writer) error {
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
		"backend", "boards", "modeled time", "recall@k", "exact")
	tb.AlignLeft(0)
	ctx := context.Background()
	for _, c := range cases {
		opts := append([]apknn.Option{apknn.WithCapacity(capacity)}, c.opts...)
		idx, err := apknn.Open(ds, opts...)
		if err != nil {
			return err
		}
		results, err := idx.Search(ctx, queries, k)
		if err != nil {
			return err
		}
		recall := 0.0
		identical := true
		for qi := range queries {
			recall += apknn.Recall(results[qi], exact[qi])
			identical = identical && neighborsIdentical(results[qi], exact[qi])
		}
		st := idx.Stats()
		tb.Row(c.name, st.Boards, idx.ModeledTime(),
			fmt.Sprintf("%.2f", recall/float64(len(queries))), identical)
	}
	tb.Render(w)
	return nil
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
func churnExperiment(w io.Writer) error {
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
				return err
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
	tb.Render(w)
	fmt.Fprintln(w, "modeled QPS = queries / modeled platform time. Inserts land in the exactly-scanned")
	fmt.Fprintln(w, "delta segment; each compaction recompiles the base and charges one reconfiguration")
	fmt.Fprintln(w, "sweep — churn degrades throughput smoothly instead of paying a sweep per insert.")
	return nil
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

// muxExperiment demonstrates §VI-B: seven queries per stream pass at 7x the
// STE cost.
func muxExperiment(w io.Writer) error {
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
	tb.Render(w)
	return nil
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
