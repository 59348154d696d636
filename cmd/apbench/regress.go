package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// regressCheck gates a hotpath run against a committed apbench/v1 baseline
// (BENCH_hotpath.json). Absolute ns/query is machine-dependent, so the gate
// compares the host-normalized speedup instead — each run's kernel cells
// against that same run's Linear oracle baseline — which cancels the host
// out of both sides. Kernel cells are matched on (op, kernel class, n, dim,
// k, workers, block): the -quick grid is a subset of the full sweep's cells,
// because a call's fixed costs and the size at which it shares the slab out
// across goroutines make speedup a function of n. The kernel class (see
// kernelClass) is in the key because the inner loop is the host's: a runner
// without AVX-512 VPOPCNTDQ (or a purego build) produces portable rows and is
// held to the baseline's portable rows, never to its avx512 ones; a run whose
// class has no rows in the baseline is reported and passes. The baseline may
// hold several sweeps of one build, and a cell is held to its slowest
// committed sample: on a shared host a multi-worker cell runs for minutes at
// a time at the speed of one worker (a second vCPU that shares a physical
// core's ports adds nothing to a POPCNT-bound loop) and then for minutes at
// the speed of two, and a baseline that has seen both does not call the
// first a regression. A matched cell whose speedup drops more
// than band below that sample fails the run; upside drift only warns (a
// faster kernel is not a regression, but past +band over every committed
// sample it is probably a baseline gone stale).
//
// Before any comparison the run itself must be whole: hotpath rows with a
// positive-bandwidth memread probe, both scan and scan_batch kernel cells of
// one inner loop, every row naming its CPU, and every cell's throughput
// figures positive (see checkRun).
func regressCheck(path string, results []benchRecord, band float64) error {
	if err := checkRun(results); err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchJSON
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if base.Schema != "apbench/v1" {
		return fmt.Errorf("baseline %s has schema %q, want apbench/v1", path, base.Schema)
	}
	baseline := speedupsByCell(base.Results)
	if len(baseline) == 0 {
		return fmt.Errorf("baseline %s has no hotpath kernel cells", path)
	}
	current := speedupsByCell(results)

	keys := make([]string, 0, len(current))
	for key := range current {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	matched, failed := 0, 0
	for _, key := range keys {
		bs, ok := baseline[key]
		if !ok {
			fmt.Printf("regress: %-72s no baseline cell, skipped\n", key)
			continue
		}
		matched++
		got := mean(current[key])
		want, top := extremes(bs)
		drift := got/want - 1
		verdict := "ok"
		switch {
		case drift < -band:
			verdict = "FAIL"
			failed++
		case got/top-1 > band:
			verdict = "warn: above band (stale baseline?)"
		}
		fmt.Printf("regress: %-72s speedup %.2fx vs baseline %.2fx (%+.1f%%) %s\n",
			key, got, want, drift*100, verdict)
	}
	if matched == 0 {
		if class := runClass(results); !hasClass(base.Results, class) {
			fmt.Printf("regress: baseline %s has no %s rows; nothing to hold this host to\n", path, class)
			return nil
		}
		return fmt.Errorf("no cells of this run match the baseline grid in %s", path)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d matched cell(s) regressed past -%.0f%%", failed, matched, band*100)
	}
	fmt.Printf("regress: %d matched cell(s), none more than %.0f%% below the baseline\n", matched, band*100)
	return nil
}

// checkRun refuses a hotpath run that could not be gated or recorded as a
// baseline: one missing its memory probe, a kernel op, or the CPU model the
// avx512 rows are keyed on, one mixing inner loops, or one with a
// non-positive throughput figure. (A cell whose results diverge from the
// Linear oracle has already aborted the run.)
func checkRun(results []benchRecord) error {
	rows, probes := 0, 0
	ops, impls := map[string]bool{}, map[string]bool{}
	for _, r := range results {
		if r.Experiment != "hotpath" {
			continue
		}
		rows++
		op, _ := r.Params["op"].(string)
		impl, _ := r.Params["impl"].(string)
		if cpu, _ := r.Params["cpu"].(string); cpu == "" {
			return fmt.Errorf("hotpath row %v names no cpu", r.Params)
		}
		if op == "memread" {
			if !positive(r.GBPerSec) {
				return fmt.Errorf("memread row %v has no positive GB/s", r.Params)
			}
			probes++
			continue
		}
		if !positive(r.HostQPS) || !positive(r.GBPerSec) || !positive(r.MemFrac) || !positive(r.Speedup) ||
			r.NSPerQuery == nil || *r.NSPerQuery <= 0 {
			return fmt.Errorf("hotpath cell %v has a non-positive throughput figure", r.Params)
		}
		if impl == "avx512" || impl == "portable" {
			ops[op], impls[impl] = true, true
		}
	}
	switch {
	case rows == 0:
		return fmt.Errorf("this run produced no hotpath rows (did it include -exp hotpath?)")
	case probes == 0:
		return fmt.Errorf("this run has no memread rows")
	case !ops["scan"] || !ops["scan_batch"] || len(ops) != 2:
		return fmt.Errorf("kernel cells cover ops %v, want scan and scan_batch", ops)
	case len(impls) != 1:
		return fmt.Errorf("kernel cells come from inner loops %v, want one", impls)
	}
	return nil
}

func positive(x *float64) bool { return x != nil && *x > 0 }

// kernelClass names the set of rows a kernel row's speedup may be held to.
// The portable loop and Linear are both scalar Go, so their ratio carries
// from host to host and "portable" is one class. The AVX-512 loop's ratio to
// Linear does not: microarchitectures run 512-bit operations at different
// rates (Zen 4 at half the rate of its 256-bit ones) while Linear is
// unaffected, so an avx512 row is comparable only with rows recorded on the
// same CPU model.
func kernelClass(r benchRecord) string {
	impl, _ := r.Params["impl"].(string)
	if impl == "avx512" {
		cpu, _ := r.Params["cpu"].(string)
		return impl + "@" + cpu
	}
	return impl
}

func isKernelRow(r benchRecord) bool {
	impl, _ := r.Params["impl"].(string)
	return r.Experiment == "hotpath" && r.Speedup != nil && impl != "linear"
}

// speedupsByCell collects hotpath kernel speedups keyed by the cell
// coordinates a speedup is comparable across.
func speedupsByCell(rows []benchRecord) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range rows {
		if !isKernelRow(r) {
			continue
		}
		key := fmt.Sprintf("%v %s n=%d dim=%d k=%d workers=%d block=%d",
			r.Params["op"], kernelClass(r), coord(r.Params["n"]), coord(r.Params["dim"]),
			coord(r.Params["k"]), coord(r.Params["workers"]), coord(r.Params["block"]))
		out[key] = append(out[key], *r.Speedup)
	}
	return out
}

// coord reads an integer cell coordinate, which is an int in this run's rows
// and a float64 in rows decoded from a baseline file (%v would print the two
// differently from a million up).
func coord(v interface{}) int {
	switch x := v.(type) {
	case int:
		return x
	case float64:
		return int(x)
	}
	return -1
}

// runClass is the kernel class of this run's rows (one build, one host: they
// all share it).
func runClass(rows []benchRecord) string {
	for _, r := range rows {
		if isKernelRow(r) {
			return kernelClass(r)
		}
	}
	return ""
}

func hasClass(rows []benchRecord, class string) bool {
	for _, r := range rows {
		if isKernelRow(r) && kernelClass(r) == class {
			return true
		}
	}
	return false
}

func extremes(xs []float64) (lowest, highest float64) {
	lowest, highest = xs[0], xs[0]
	for _, x := range xs[1:] {
		lowest, highest = min(lowest, x), max(highest, x)
	}
	return lowest, highest
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
