package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func kernelRow(impl, cpu string, n, workers int, speedup float64) benchRecord {
	return cell("scan_batch", impl, cpu, n, workers, speedup)
}

func cell(op, impl, cpu string, n, workers int, speedup float64) benchRecord {
	return benchRecord{
		Experiment: "hotpath",
		Params: map[string]interface{}{"op": op, "impl": impl, "cpu": cpu,
			"n": n, "dim": 128, "k": 16, "workers": workers, "block": 0},
		HostQPS: fptr(1000), NSPerQuery: iptr(1e6), GBPerSec: fptr(8), MemFrac: fptr(0.5),
		Speedup: fptr(speedup),
	}
}

// whole completes kernel rows into a run checkRun accepts: a memread probe
// and a single-query scan cell of the same inner loop, at an n no baseline
// row has.
func whole(rows ...benchRecord) []benchRecord {
	impl, _ := rows[0].Params["impl"].(string)
	cpu, _ := rows[0].Params["cpu"].(string)
	probe := benchRecord{Experiment: "hotpath", GBPerSec: fptr(10),
		Params: map[string]interface{}{"op": "memread", "impl": "memread", "cpu": cpu, "bytes": 64 << 20, "workers": 1}}
	return append([]benchRecord{probe, cell("scan", impl, cpu, 32768, 1, 3)}, rows...)
}

func writeBaseline(t *testing.T, rows ...benchRecord) string {
	t.Helper()
	raw, err := json.Marshal(benchJSON{Schema: "apbench/v1", Results: rows})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRegressGate pins what the gate holds a run to: every matched cell,
// multi-worker ones and cells of a million vectors included (an n that
// decodes from JSON as a float64); the slowest committed sample of a cell;
// rows of the run's own inner loop only; avx512 rows only from the run's own
// CPU model.
func TestRegressGate(t *testing.T) {
	const spr, zen4 = "GenuineIntel-6-207", "AuthenticAMD-25-17"
	base := writeBaseline(t,
		kernelRow("avx512", spr, 1<<20, 1, 12),
		kernelRow("avx512", spr, 1<<20, 2, 22),
		kernelRow("portable", spr, 1<<20, 1, 2.7),
		kernelRow("portable", spr, 1<<20, 2, 5.2),
		kernelRow("portable", spr, 1<<20, 4, 5.4), // a second sweep caught the
		kernelRow("portable", spr, 1<<20, 4, 2.8), // other cores asleep
	)
	for _, tc := range []struct {
		name    string
		run     []benchRecord
		wantErr string
	}{
		{"same speedups pass", []benchRecord{kernelRow("avx512", spr, 1<<20, 1, 12), kernelRow("avx512", spr, 1<<20, 2, 22)}, ""},
		{"a slow multi-worker cell fails", []benchRecord{kernelRow("avx512", spr, 1<<20, 1, 12), kernelRow("avx512", spr, 1<<20, 2, 15)}, "1 of 2 matched"},
		{"a fast cell only warns", []benchRecord{kernelRow("portable", zen4, 1<<20, 2, 9)}, ""},
		{"portable is held on any CPU", []benchRecord{kernelRow("portable", zen4, 1<<20, 2, 3)}, "1 of 1 matched"},
		{"a cell is held to its slowest committed sample", []benchRecord{kernelRow("portable", spr, 1<<20, 4, 2.5)}, ""},
		{"and fails below that", []benchRecord{kernelRow("portable", spr, 1<<20, 4, 2.0)}, "1 of 1 matched"},
		{"avx512 on another CPU model is not held", []benchRecord{kernelRow("avx512", zen4, 1<<20, 2, 8)}, ""},
		{"an unknown cell of a known class is an error", []benchRecord{kernelRow("portable", spr, 4096, 1, 3)}, "no cells of this run match"},
	} {
		err := regressCheck(base, whole(tc.run...), 0.25)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestRegressRefusesPartialRun pins checkRun: each way a run can come out
// incomplete is its own error, before any baseline comparison.
func TestRegressRefusesPartialRun(t *testing.T) {
	const spr = "GenuineIntel-6-207"
	base := writeBaseline(t, kernelRow("portable", spr, 1<<20, 1, 2.7))
	good := func() []benchRecord { return whole(kernelRow("portable", spr, 1<<20, 1, 2.7)) }
	for _, tc := range []struct {
		name    string
		edit    func([]benchRecord) []benchRecord
		wantErr string
	}{
		{"a whole run passes", func(rs []benchRecord) []benchRecord { return rs }, ""},
		{"no hotpath rows", func([]benchRecord) []benchRecord { return []benchRecord{{Experiment: "churn"}} }, "no hotpath rows"},
		{"no memread rows", func(rs []benchRecord) []benchRecord { return rs[1:] }, "no memread rows"},
		{"a memread row without bandwidth", func(rs []benchRecord) []benchRecord { rs[0].GBPerSec = fptr(0); return rs }, "no positive GB/s"},
		{"no scan cells", func(rs []benchRecord) []benchRecord { return append(rs[:1], rs[2:]...) }, "want scan and scan_batch"},
		{"no scan_batch cells", func(rs []benchRecord) []benchRecord { return rs[:2] }, "want scan and scan_batch"},
		{"two inner loops", func(rs []benchRecord) []benchRecord { return append(rs, kernelRow("avx512", spr, 1<<20, 1, 12)) }, "want one"},
		{"a row naming no cpu", func(rs []benchRecord) []benchRecord { rs[1].Params["cpu"] = ""; return rs }, "names no cpu"},
		{"a zero host QPS", func(rs []benchRecord) []benchRecord { rs[2].HostQPS = fptr(0); return rs }, "non-positive throughput"},
		{"no ns per query", func(rs []benchRecord) []benchRecord { rs[2].NSPerQuery = nil; return rs }, "non-positive throughput"},
		{"no memory fraction", func(rs []benchRecord) []benchRecord { rs[1].MemFrac = nil; return rs }, "non-positive throughput"},
		{"no speedup", func(rs []benchRecord) []benchRecord { rs[2].Speedup = nil; return rs }, "non-positive throughput"},
	} {
		err := regressCheck(base, tc.edit(good()), 0.25)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
