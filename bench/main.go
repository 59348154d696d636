// Command bench is the repository's one gated benchmark: four single-stream
// workloads against in-process apserve/aprouter images, end-to-end metrics
// measured with tracing off, and a separate traced run that splits a request
// into layers by replaying it at every depth. See README.md.
//
//	go run ./bench                                       # all workloads
//	go run ./bench -workload routed -seed 7 -seconds 10 -trace 0
//	go run ./bench -trace 1                              # the per-layer table
//	go run ./bench -agree 5                              # repeatability check
//
// bench/run.sh is the same with everything the build writes kept inside the
// checkout; it is the command BENCHMARK.json names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	apknn "repro"
	"repro/internal/obs"
)

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints: the contract the
// acceptance driver parses.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one run's command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
}

// manifestSeconds is BENCHMARK.json's run_seconds: the acceptance driver
// makes 92 runs, set-up and checks included, in 3420 s, and a run of 25 s
// measured takes 29–30 s in all, which leaves a fifth of that time to spare
// for a slow hour. ISSUE 13 asked for 30 s; -seconds 30 still runs them.
const manifestSeconds = 25

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process: "+specNames()+" (default: each in a fresh child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&o.seconds, "seconds", manifestSeconds, "length of the timed phase")
	// The acceptance driver passes `-trace 0` or `-trace 1`, so the flag
	// takes a value; a Go boolean flag would read the 0 as an argument.
	flag.Func("trace", "1: traced run printing the per-layer metrics; 0 (default): untraced run printing the end-to-end metrics", func(v string) (err error) {
		o.trace, err = strconv.ParseBool(v)
		return err
	})
	agree := flag.Int("agree", 0, "run two sets of this many full untraced runs and compare them against the bounds")
	flag.StringVar(&o.out, "out", "bench/out", "directory for trace files and durable-index scratch data")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments or non-positive -seconds")
		os.Exit(2)
	}
	if clients > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "bench: %d closed-loop clients on %d CPUs would measure the scheduler\n", clients, runtime.NumCPU())
		os.Exit(2)
	}
	var err error
	switch {
	case *agree > 0:
		err = runAgree(o, *agree)
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its metrics, one
// `workload/name value unit` line each, then the result line. The lines
// carry every metric the workload has; the result line only those every
// workload has, which is what the acceptance driver requires of it.
func runOne(o options) error {
	sp, ok := specByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, specNames())
	}
	res, diag, err := runWorkload(sp, o)
	if err != nil {
		return err
	}
	printMetrics(sp.name, res.Metrics)
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%d trace=%v %s\n", sp.name, o.seed, o.seconds, o.trace, diag)
	if !o.trace {
		for _, def := range ownEndToEnd {
			delete(res.Metrics, def.name)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d requests failed", sp.name, res.Failed, res.Attempted)
	}
	return nil
}

func printMetrics(workload string, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := metrics[name]
		fmt.Printf("%s/%s %s %s\n", workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
}

// child runs one workload in a fresh process — its own heap, its own
// obs.Default — and returns what it printed: the counts of its result line
// and every metric of its `workload/name value unit` lines.
func child(o options, workload string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.FormatBool(o.trace), "-out", o.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, jerr)
	}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		name, ok := strings.CutPrefix(f[0], workload+"/")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: metric line %q: %w", workload, line, err)
		}
		res.Metrics[name] = metric{Value: v, Unit: f[2]}
	}
	return &res, nil
}

// report is the JSON document a full run ends with.
type report struct {
	GoVersion  string                 `json:"go_version"`
	NumCPU     int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Commit     string                 `json:"commit"`
	Seed       uint64                 `json:"seed"`
	Seconds    int                    `json:"seconds"`
	Traced     bool                   `json:"traced"`
	Workloads  map[string]workloadRow `json:"workloads"`
}

type workloadRow struct {
	Attempted int               `json:"attempted"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runAll runs every workload, each in a fresh child process, and prints
// every metric plus one JSON document describing the run.
func runAll(o options) error {
	rep := report{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: obs.BuildVersion(), Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Workloads: make(map[string]workloadRow)}
	failed := 0
	for _, sp := range specs {
		res, err := child(o, sp.name)
		if err != nil {
			return err
		}
		printMetrics(sp.name, res.Metrics)
		rep.Workloads[sp.name] = workloadRow{Attempted: res.Attempted, Succeeded: res.Attempted - res.Failed,
			Failed: res.Failed, Metrics: res.Metrics}
		failed += res.Failed
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(doc))
	if failed > 0 {
		return fmt.Errorf("%d requests failed", failed)
	}
	return nil
}

// runWorkload sets the system up, warms it, runs the timed phase and every
// check, and returns the metrics of the requested kind plus a one-line
// diagnostic.
func runWorkload(sp spec, o options) (*result, string, error) {
	in := genInputs(sp, o.seed)
	dir := ""
	if sp.live {
		var err error
		if dir, err = freshDir(o.out, sp.name); err != nil {
			return nil, "", err
		}
	}
	probe := newHostProbe()
	first := probe.burst()
	start := time.Now()
	e, err := boot(sp, in, dir)
	if err != nil {
		return nil, "", err
	}
	defer e.close()
	d := newDriver(e, o.seed, probe)
	if err := d.warm(); err != nil {
		return nil, "", err
	}
	// Set-up time at the reference host speed, like every other time.
	setup := time.Duration(float64(time.Since(start)) / slowdown(append(d.setupBursts, first)...))
	if err := d.verify(); err != nil { // after warm-up
		return nil, "", err
	}

	res := &result{Metrics: make(map[string]metric)}
	var diag string
	if o.trace {
		diag, err = tracedRun(d, o, res)
	} else {
		diag, err = timedRun(d, o, setup, res)
	}
	if err != nil {
		return nil, "", err
	}
	res.Attempted = d.tally.attempted
	res.Failed = d.tally.failed
	res.Correct = res.Failed == 0
	if !o.trace {
		res.set("failed_share", float64(res.Failed)/float64(res.Attempted))
	}
	if d.first.err != nil {
		diag += fmt.Sprintf(" first_failure=%q", d.first.err)
	}
	return res, diag, nil
}

// timedRun is the untraced run: the timed closed loop, the after-the-run
// checks, then heap and (on the durable workload) recovery. Every latency
// and rate is taken over the whole phase, at the reference host speed
// (phase.fill).
func timedRun(d *driver, o options, setup time.Duration, res *result) (string, error) {
	ph, err := d.run(time.Duration(o.seconds) * time.Second)
	if err != nil {
		return "", err
	}
	if err := d.verify(); err != nil {
		return "", err
	}
	e := d.e
	res.set("setup_s", setup.Seconds())
	res.set("search_qps", float64(ph.queries)/ph.dur.Seconds())
	res.set("search_p50_ms", float64(percentile(ph.search, 50))/1e6)
	res.set("search_p99_ms", float64(percentile(ph.search, 99))/1e6)
	if e.live != nil {
		res.set("write_p50_ms", float64(percentile(ph.write, 50))/1e6)
		res.set("write_p99_ms", float64(percentile(ph.write, 99))/1e6)
		// An explicit compaction first: a leaked base generation then
		// shows as heap instead of hiding behind pending churn.
		if err := e.live.Compact(d.ctx); err != nil {
			return "", fmt.Errorf("compact: %w", err)
		}
	}
	if e.sp.backend == apknn.Sharded {
		queries, t := ph.modeled()
		res.set("modeled_qps", queries/t.Seconds())
	}
	spreadPct := sliceSpreadPct(ph.rates)
	diag := fmt.Sprintf("requests=%d blocks=%d/%d host_slowdown=%.3f raw_qps=%.0f raw_p50_ms=%.4f slice_qps=%.0f slice_spread_pct=%.2f stolen_pct=%.2f",
		ph.ops, ph.kept, ph.blocks, ph.slowdown, float64(ph.allQueries)/ph.wall.Seconds(), float64(ph.rawP50)/1e6,
		ph.rates, spreadPct, ph.stolenPct)
	if spreadPct > disturbedPct {
		diag += " disturbed"
	}
	ph = nil // the phase's records must not count as the program's heap
	res.set("live_heap_mb", e.heapMB())
	if e.live != nil {
		if _, err := d.recoveryCheck(); err != nil {
			return "", err
		}
	}
	return diag, nil
}
