package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/perfmodel"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workload"
)

// hotpathExperiment is the real wall-clock benchmark of the scan kernel
// (internal/knn Scan and ScanBatch) versus the Linear oracle it must match
// byte-for-byte: single-query cells over n x dim x workers x block size,
// 8-query batch cells over n x dim x workers — among them the gated
// benchmark's kernel_large shape, a slab past every private cache — and one
// 12-query batch cell, whose last four queries keep the SIMD loop's
// four-wide tile timed (every 8-query batch runs the eight-wide one), each
// reporting ns/query, host QPS, sustained scan bandwidth, that bandwidth as
// a fraction of the host's measured streaming-read ceiling, and speedup over
// the oracle. Every kernel row names the inner loop that ran (`impl`:
// avx512 or portable). Every cell re-verifies kernel results against Linear
// and aborts on any divergence, so a committed BENCH_hotpath.json can only
// ever contain oracle-identical cells. Unlike every other experiment here,
// the modeled column is secondary: this sweep is the committed trajectory of
// what the host actually sustains.
func hotpathExperiment(w io.Writer) error {
	ns := []int{1 << 15, 100_000}
	dims := []int{64, 128, 256} // every stride the SIMD loop and its tile cover
	workerSet := dedupInts([]int{1, 2, 4, runtime.NumCPU()})
	blocks := []int{0, 1024, 8192} // 0 = auto
	batchWorkers := dedupInts([]int{1, runtime.NumCPU()})
	smallBatchWorkers, largeBatchWorkers := batchWorkers, workerSet
	if quick {
		// A subset of the full grid's cells, timed exactly as the full sweep
		// times them, so -regress finds its baseline: the single-worker
		// cells of the small slabs, and the large shape below on one worker
		// and on every core, which is where sharing a slab out matters. (On a
		// shared host a multi-worker cell reads at one of two speeds from one
		// run to the next — see regressCheck — and one such pair of cells is
		// enough to carry in the baseline.)
		ns = ns[:1]
		workerSet = []int{1}
		blocks = []int{0}
		smallBatchWorkers = []int{1}
		largeBatchWorkers = batchWorkers
	}
	const k, nq, batch, remainderBatch = 10, 16, 8, 12

	h := &hotpathRun{
		impl:  knn.KernelImpl(),
		cpu:   hostCPU(),
		rng:   stats.NewRNG(2026),
		memBW: map[int]float64{},
		tb: report.NewTable(
			fmt.Sprintf("Hot path: scan kernel (%s) vs Linear oracle (fastest of %d x %v windows per cell)",
				knn.KernelImpl(), hotpathRounds, hotpathWindow),
			"n", "dim", "k", "op", "batch", "impl", "workers", "block", "ns/query", "host QPS", "GB/s", "of mem", "speedup", "oracle"),
	}
	h.probeMemory(dedupInts(append(append([]int{}, workerSet...), largeBatchWorkers...)))
	for _, n := range ns {
		for _, dim := range dims {
			h.dataset(n, dim, k, nq)
			for _, workers := range workerSet {
				for _, block := range blocks {
					h.scanCell(knn.ScanConfig{Workers: workers, BlockVectors: block})
				}
			}
			for _, workers := range smallBatchWorkers {
				h.batchCell(batch, knn.ScanConfig{Workers: workers})
			}
			if n == 1<<15 && dim == 128 {
				h.batchCell(remainderBatch, knn.ScanConfig{Workers: 1})
			}
		}
	}
	// The gated benchmark's kernel_large request: a 16 MiB slab, 8 queries
	// per batch, k=16.
	h.dataset(1<<20, 128, 16, nq)
	for _, workers := range largeBatchWorkers {
		h.batchCell(batch, knn.ScanConfig{Workers: workers})
	}
	h.tb.Render(w)
	fmt.Fprintln(w, "ns/query is per-query latency (a batch cell's call time / its `batch` queries; the fastest")
	fmt.Fprintln(w, "window); GB/s is packed-word scan bandwidth and `of mem` that bandwidth over the")
	fmt.Fprintln(w, "memread row of the same worker count (one streaming read of a buffer past the last-level")
	fmt.Fprintln(w, "cache: above 1.00 the cell ran out of cache, near 1.00 it is memory-bound); speedup is vs")
	fmt.Fprintln(w, "the Linear oracle on the same (n, dim, k), timed in windows alternating with the cell's.")
	fmt.Fprintln(w, "Every kernel cell is verified byte-identical to Linear before timing — a divergence")
	fmt.Fprintln(w, "aborts the run.")
	return nil
}

// hotpathRun is the state the hotpath cells share: the table, the measured
// memory ceilings, and the current (n, dim, k) dataset with its oracle row.
type hotpathRun struct {
	impl  string
	cpu   string // stamped on every row: -regress holds avx512 rows to their own CPU model only
	rng   *stats.RNG
	tb    *report.Table
	memBW map[int]float64 // streaming-read GB/s by worker count

	ds         *bitvec.Dataset
	queries    []bitvec.Vector
	k          int
	modeledQPS float64
}

// dataset draws the (n, dim) dataset and its queries and records the Linear
// oracle's row for it.
func (h *hotpathRun) dataset(n, dim, k, nq int) {
	h.ds = bitvec.RandomDataset(h.rng, n, dim)
	h.queries = workload.Queries(h.rng, nq, dim)
	h.k = k
	h.modeledQPS = 1 / perfmodel.CPUTime(perfmodel.XeonE5(), n, 1, dim).Seconds()
	ns, _ := h.measure(len(h.queries), h.linear)
	h.row("scan", "linear", 1, 1, 0, ns, ns)
}

func (h *hotpathRun) linear(i int) { knn.Linear(h.ds, h.queries[i%len(h.queries)], h.k) }

// A cell is timed in hotpathRounds rounds of a Linear window (half of
// hotpathWindow) and then a window of its own.
const (
	hotpathRounds = 5
	hotpathWindow = 50 * time.Millisecond
)

// measure times fn against the Linear oracle on the current dataset in rounds
// of alternating windows and returns the fastest window of each, in ns per
// call. On a shared host a neighbour's burst slows whatever runs during it:
// alternating puts both sides of a speedup under the same weather, and the
// fastest window is what the code does when left alone.
func (h *hotpathRun) measure(minReps int, fn func(i int)) (cellNS, linearNS int64) {
	fn(0) // warm up caches and the scheduler
	cellNS, linearNS = 1<<63-1, 1<<63-1
	for round := 0; round < hotpathRounds; round++ {
		if ns := timeWindow(hotpathWindow/2, 1, h.linear); ns < linearNS {
			linearNS = ns
		}
		if ns := timeWindow(hotpathWindow, minReps, fn); ns < cellNS {
			cellNS = ns
		}
	}
	return cellNS, linearNS
}

// scanCell verifies and times single-query Scan under cfg.
func (h *hotpathRun) scanCell(cfg knn.ScanConfig) {
	for _, q := range h.queries {
		got, err := knn.Scan(h.ds, q, h.k, cfg)
		h.verify(cfg, [][]knn.Neighbor{got}, []bitvec.Vector{q}, err)
	}
	cellNS, linearNS := h.measure(len(h.queries), func(i int) {
		if _, err := knn.Scan(h.ds, h.queries[i%len(h.queries)], h.k, cfg); err != nil {
			hotpathFatal(err)
		}
	})
	h.row("scan", h.impl, 1, cfg.Workers, cfg.BlockVectors, cellNS, linearNS)
}

// batchCell verifies and times ScanBatch over the first nq queries under
// cfg; the row's ns/query is the call time over nq.
func (h *hotpathRun) batchCell(nq int, cfg knn.ScanConfig) {
	ctx := context.Background()
	queries := h.queries[:nq]
	got, err := knn.ScanBatch(ctx, h.ds, queries, h.k, cfg)
	h.verify(cfg, got, queries, err)
	callNS, linearNS := h.measure(1, func(int) {
		if _, err := knn.ScanBatch(ctx, h.ds, queries, h.k, cfg); err != nil {
			hotpathFatal(err)
		}
	})
	h.row("scan_batch", h.impl, nq, cfg.Workers, cfg.BlockVectors, callNS/int64(nq), linearNS)
}

func (h *hotpathRun) verify(cfg knn.ScanConfig, got [][]knn.Neighbor, queries []bitvec.Vector, err error) {
	if err != nil {
		hotpathFatal(err)
	}
	for i, q := range queries {
		if !neighborsIdentical(got[i], knn.Linear(h.ds, q, h.k)) {
			hotpathFatal(fmt.Errorf("kernel (%s) diverged from Linear oracle at n=%d dim=%d k=%d workers=%d block=%d",
				h.impl, h.ds.Len(), h.ds.Dim(), h.k, cfg.Workers, cfg.BlockVectors))
		}
	}
}

func hotpathFatal(err error) {
	fmt.Fprintln(os.Stderr, "apbench: hotpath:", err)
	os.Exit(1)
}

// row prints and records one cell of the current dataset, batch queries per
// call; linearNS is the oracle's ns/query measured alongside it.
func (h *hotpathRun) row(op, impl string, batch, workers, block int, nsPerQuery, linearNS int64) {
	n, dim := h.ds.Len(), h.ds.Dim()
	gbs := gbPerSec(int64(n)*int64(bitvec.WordsFor(dim))*8, nsPerQuery)
	speedup := float64(linearNS) / float64(nsPerQuery)
	blockLabel := strconv.Itoa(block)
	if block == 0 {
		blockLabel = "auto"
	}
	rec := benchRecord{
		Experiment:  "hotpath",
		Params:      map[string]interface{}{"op": op, "impl": impl, "cpu": h.cpu, "n": n, "dim": dim, "k": h.k, "batch": batch, "workers": workers, "block": block},
		ModeledQPS:  h.modeledQPS,
		HostQPS:     fptr(1e9 / float64(nsPerQuery)),
		NSPerQuery:  iptr(nsPerQuery),
		GBPerSec:    fptr(gbs),
		Speedup:     fptr(speedup),
		OracleMatch: bptr(true),
	}
	ofMem := "-"
	if bw := h.memBW[workers]; bw > 0 {
		rec.MemFrac = fptr(gbs / bw)
		ofMem = fmt.Sprintf("%.2f", gbs/bw)
	}
	h.tb.Row(n, dim, h.k, op, batch, impl, workers, blockLabel,
		nsPerQuery, fmt.Sprintf("%.0f", 1e9/float64(nsPerQuery)),
		fmt.Sprintf("%.2f", gbs), ofMem, fmt.Sprintf("%.2fx", speedup), true)
	record(rec)
}

// probeMemory measures the roofline's memory ceiling for each worker count:
// the best of three passes in which the workers each stream a disjoint share
// of a buffer twice the last-level cache through bytes.Count, so every byte
// comes from DRAM. bytes.Count is the standard library's vectorized
// assembly on amd64 and arm64 — wide loads, one compare per load, nothing of
// the kernel under test in it; a plain Go summing loop reads a third as fast
// and would understate the ceiling. Each count becomes a `memread` row.
func (h *hotpathRun) probeMemory(workerSet []int) {
	size := 2 * lastLevelCacheBytes()
	if size < 64<<20 || quick {
		size = 64 << 20
	}
	if size > 1<<30 {
		size = 1 << 30
	}
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = 1 // touch every page: an untouched one reads the shared zero page
	}
	for _, workers := range workerSet {
		best := time.Duration(1<<63 - 1)
		for pass := 0; pass < 3; pass++ {
			start := time.Now()
			var wg sync.WaitGroup
			chunk := (len(buf) + workers - 1) / workers
			for lo := 0; lo < len(buf); lo += chunk {
				hi := lo + chunk
				if hi > len(buf) {
					hi = len(buf)
				}
				wg.Add(1)
				go func(part []byte) {
					defer wg.Done()
					if bytes.Count(part, []byte{0}) != 0 {
						hotpathFatal(fmt.Errorf("memory probe read a byte it did not write"))
					}
				}(buf[lo:hi])
			}
			wg.Wait()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		gbs := float64(size) / float64(best.Nanoseconds())
		h.memBW[workers] = gbs
		h.tb.Row(size, "-", "-", "memread", "-", "memread", workers, "-", "-", "-", fmt.Sprintf("%.2f", gbs), "1.00", "-", "-")
		record(benchRecord{
			Experiment: "hotpath",
			Params:     map[string]interface{}{"op": "memread", "impl": "memread", "cpu": h.cpu, "bytes": size, "workers": workers},
			GBPerSec:   fptr(gbs),
		})
	}
}

// hostCPU identifies the CPU model as vendor-family-model from Linux's
// /proc/cpuinfo (the CPUID identity; the marketing name is often masked in a
// VM); "unknown" where that cannot be read.
func hostCPU() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	field := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			break // the first processor's stanza is enough
		}
		if name, value, ok := strings.Cut(line, ":"); ok {
			field[strings.TrimSpace(name)] = strings.TrimSpace(value)
		}
	}
	if field["vendor_id"] == "" {
		return "unknown"
	}
	return field["vendor_id"] + "-" + field["cpu family"] + "-" + field["model"]
}

// lastLevelCacheBytes reads the largest cache the kernel reports for cpu0
// (Linux sysfs); 32 MiB when it cannot be read.
func lastLevelCacheBytes() int {
	best := 32 << 20
	for idx := 0; idx < 8; idx++ {
		raw, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", idx))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(raw))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.Atoi(s); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// timeWindow calls fn(0), fn(1), ... for at least d of wall-clock and
// minReps calls, and returns ns per call.
func timeWindow(d time.Duration, minReps int, fn func(i int)) int64 {
	reps := 0
	start := time.Now()
	var elapsed time.Duration
	for elapsed < d || reps < minReps {
		fn(reps)
		reps++
		elapsed = time.Since(start)
	}
	return elapsed.Nanoseconds() / int64(reps)
}

func gbPerSec(bytesPerQuery, nsPerQuery int64) float64 {
	return float64(bytesPerQuery) / float64(nsPerQuery) // bytes/ns == GB/s
}
