package perfmodel

import (
	"testing"
	"time"

	"repro/internal/workload"
)

// withinFactor fails the test if reproduced is not within factor of paper.
func withinFactor(t *testing.T, label string, paper, reproduced, factor float64) {
	t.Helper()
	if paper <= 0 || reproduced <= 0 {
		t.Fatalf("%s: non-positive values paper=%v repro=%v", label, paper, reproduced)
	}
	r := reproduced / paper
	if r < 1/factor || r > factor {
		t.Errorf("%s: reproduced %v vs paper %v (ratio %.2f, budget %.2f)", label, reproduced, paper, r, factor)
	}
}

func TestPlatformsMatchTable1(t *testing.T) {
	ps := Platforms()
	if len(ps) != 6 {
		t.Fatalf("got %d platforms, want 6 (Table I)", len(ps))
	}
	x := XeonE5()
	if x.Cores != 6 || x.ProcessNm != 32 || x.ClockMHz != 2000 {
		t.Errorf("Xeon descriptor wrong: %+v", x)
	}
	apb := APBoard()
	if apb.ProcessNm != 50 || apb.ClockMHz != 133 {
		t.Errorf("AP descriptor wrong: %+v", apb)
	}
}

// TestTable3RuntimesWithinBudget: every modeled small-dataset runtime must be
// within 1.6x of the published value.
func TestTable3RuntimesWithinBudget(t *testing.T) {
	for _, c := range Table3() {
		paper := PaperTable3Runtime[c.Workload][c.Platform]
		withinFactor(t, c.Workload+"/"+c.Platform,
			paper, float64(c.Runtime)/float64(time.Millisecond), 1.6)
	}
}

// TestTable4RuntimesWithinBudget: large-dataset runtimes within 1.6x.
func TestTable4RuntimesWithinBudget(t *testing.T) {
	for _, c := range Table4() {
		paper := PaperTable4Runtime[c.Workload][c.Platform]
		withinFactor(t, c.Workload+"/"+c.Platform, paper, c.Runtime.Seconds(), 1.6)
	}
}

// TestTable4EnergyWithinBudget: energies within 1.6x.
func TestTable4EnergyWithinBudget(t *testing.T) {
	for _, c := range Table4() {
		paper := PaperTable4Energy[c.Workload][c.Platform]
		withinFactor(t, c.Workload+"/"+c.Platform+" energy", paper, c.Energy, 1.6)
	}
}

// TestHeadlineSpeedup reproduces the abstract's claim: "over 50x speedup
// over CPUs" — AP Gen 1 versus the ARM multicore on small datasets.
func TestHeadlineSpeedup(t *testing.T) {
	w := workload.WordEmbed()
	arm := CPUTime(CortexA15(), w.SmallN, w.Queries, w.Dim)
	apt := APTime(APGen1(), w.SmallN, w.Queries, w.Dim)
	speedup := arm.Seconds() / apt.Seconds()
	if speedup < PaperSpeedupOverCPU {
		t.Errorf("AP speedup over ARM = %.1fx, paper claims ~%.0fx", speedup, PaperSpeedupOverCPU)
	}
}

// TestGen1ReconfigDominates reproduces §V-B: "reconfiguration overheads ...
// account for upwards of 98% of the execution time" on large datasets.
func TestGen1ReconfigDominates(t *testing.T) {
	w := workload.WordEmbed()
	total := APTime(APGen1(), w.LargeN, w.Queries, w.Dim)
	noReconfig := APTime(APGen2(), w.LargeN, w.Queries, w.Dim) -
		time.Duration(w.LargeN/1024)*APGen2().ReconfigLatency
	frac := 1 - noReconfig.Seconds()/total.Seconds()
	if frac < 0.9 {
		t.Errorf("reconfiguration fraction = %.2f, paper reports ~0.98", frac)
	}
}

// TestGen2Improvement reproduces §V-B: "19.4x performance improvement
// between Gen 1 and Gen 2" for WordEmbed-large.
func TestGen2Improvement(t *testing.T) {
	w := workload.WordEmbed()
	g1 := APTime(APGen1(), w.LargeN, w.Queries, w.Dim)
	g2 := APTime(APGen2(), w.LargeN, w.Queries, w.Dim)
	ratio := g1.Seconds() / g2.Seconds()
	if ratio < 15 || ratio > 25 {
		t.Errorf("Gen1/Gen2 = %.1fx, paper reports 19.4x", ratio)
	}
}

func TestTable5Shape(t *testing.T) {
	cs := CompareTable5()
	vals := map[string]float64{}
	for _, c := range cs.Items {
		vals[c.Label] = c.Reproduced
	}
	// Shape assertions from §V-B: Gen 1 indexing is at or below break-even
	// because reconfiguration dominates; Gen 2 recovers large speedups; and
	// MPLSH trails the tree indexes in both generations.
	for _, s := range []string{"KD-Tree", "K-Means", "MPLSH"} {
		if vals[s+" / Gen 1"] > 1.5 {
			t.Errorf("%s Gen 1 speedup %.2f, expected reconfiguration-bound (~<=1)", s, vals[s+" / Gen 1"])
		}
		if vals[s+" / Gen 2"] < 10 && s != "MPLSH" {
			t.Errorf("%s Gen 2 speedup %.2f, expected large", s, vals[s+" / Gen 2"])
		}
	}
	if vals["MPLSH / Gen 2"] >= vals["KD-Tree / Gen 2"] {
		t.Error("MPLSH should trail tree indexes on Gen 2")
	}
	if vals["Linear (No Index) / Gen 1"] < 10 {
		t.Errorf("linear Gen 1 speedup %.2f, paper reports 16x", vals["Linear (No Index) / Gen 1"])
	}
}

// TestTable7WithinBudget: our exact decomposition analysis versus the
// paper's analytical model, within 1.3x everywhere.
func TestTable7WithinBudget(t *testing.T) {
	cs := CompareTable7()
	for _, c := range cs.Items {
		withinFactor(t, c.Label, c.Paper, c.Reproduced, 1.3)
	}
}

// TestTable8WithinBudget: compounded gains within 1.35x.
func TestTable8WithinBudget(t *testing.T) {
	cs := CompareTable8()
	for _, c := range cs.Items {
		withinFactor(t, c.Label, c.Paper, c.Reproduced, 1.35)
	}
}

// TestBandwidthWithinBudget: §VI-C bandwidths within 1.5x.
func TestBandwidthWithinBudget(t *testing.T) {
	cs := CompareBandwidth()
	for _, c := range cs.Items {
		withinFactor(t, c.Label, c.Paper, c.Reproduced, 1.5)
	}
	// The WordEmbed bandwidth is the paper's sharpest number: 36.2 Gbps is a
	// "significant fraction" of the 63 Gbps PCIe budget.
	if bw := ReportBandwidthGbps(1024, 64); bw < 30 || bw > 63 {
		t.Errorf("WordEmbed bandwidth = %v Gbps, want significant fraction of 63", bw)
	}
}

// TestUtilizationWithinBudget: §V-A utilization within 1.3x per workload.
func TestUtilizationWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three full board configurations")
	}
	cs, err := CompareUtilization()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs.Items {
		withinFactor(t, c.Label, c.Paper, c.Reproduced, 1.3)
	}
}

func TestAPSymbolsPerQuery(t *testing.T) {
	// §VI-C: a query has a latency of ~2d cycles; the runtime model uses the
	// pipelined d+2 per query. Both must bracket the functional stream.
	if APSymbolsPerQuery(64) != 66 {
		t.Errorf("APSymbolsPerQuery(64) = %d, want 66", APSymbolsPerQuery(64))
	}
	fn := APFunctionalTime(APGen1(), 1024, 4096, 64)
	model := APTime(APGen1(), 1024, 4096, 64)
	if fn <= model {
		t.Error("functional (non-overlapped) time should exceed the pipelined model")
	}
	if fn > 3*model {
		t.Errorf("functional time %v implausibly far from model %v", fn, model)
	}
}

func TestOptExtGainsComposition(t *testing.T) {
	g := ComputeOptExtGains(128)
	want := g.TechScaling * g.VectorPacking * g.STEDecomposition * g.CounterIncrement
	if g.Total() != want {
		t.Errorf("Total = %v, want product %v", g.Total(), want)
	}
}

func TestQueriesPerJoule(t *testing.T) {
	p := Platform{DynamicPowerW: 10}
	if got := QueriesPerJoule(p, 100, time.Second); got != 10 {
		t.Errorf("QueriesPerJoule = %v, want 10", got)
	}
	if got := QueriesPerJoule(p, 100, 0); got != 0 {
		t.Errorf("zero-time energy = %v, want 0", got)
	}
}

func TestSingleThreadScaling(t *testing.T) {
	p := CortexA15()
	multi := CPUTime(p, 1000, 10, 64)
	single := SingleThreadCPUTime(p, 1000, 10, 64)
	if single != 4*multi {
		t.Errorf("single-thread time %v, want 4x multicore %v", single, multi)
	}
}

func TestGPUModelTimeMatchesPaper(t *testing.T) {
	// Table III: 125.80 ms, WordEmbed small.
	got := GPUTime(JetsonTK1(), 1024, 4096)
	if got < 100*time.Millisecond || got > 170*time.Millisecond {
		t.Errorf("TK1 small = %v, paper 125.8ms", got)
	}
	// Table IV: ~16 s large, flat across dimensionality.
	got = GPUTime(JetsonTK1(), 1<<20, 4096)
	if got < 12*time.Second || got > 22*time.Second {
		t.Errorf("TK1 large = %v, paper ~16s", got)
	}
	got = GPUTime(TitanX(), 1<<20, 4096)
	if got < 700*time.Millisecond || got > 1500*time.Millisecond {
		t.Errorf("Titan X large = %v, paper ~1s", got)
	}
}

func TestTitanFasterThanTegra(t *testing.T) {
	if GPUTime(TitanX(), 1<<20, 4096) >= GPUTime(JetsonTK1(), 1<<20, 4096) {
		t.Error("Titan X should beat Tegra K1")
	}
}

func TestFPGAModelTimeMatchesPaperScale(t *testing.T) {
	// Paper Table III Kintex-7: 1.89 ms for WordEmbed-small; model within 2x.
	got := FPGATime(Kintex7(), 1024, 4096, 64)
	if got < 900*time.Microsecond || got > 4*time.Millisecond {
		t.Errorf("FPGATime = %v, paper reports 1.89ms", got)
	}
	// Large: 1.85 s.
	got = FPGATime(Kintex7(), 1<<20, 4096, 64)
	if got < 900*time.Millisecond || got > 4*time.Second {
		t.Errorf("large FPGATime = %v, paper reports 1.85s", got)
	}
}

func TestFPGAModelTimeScalesWithDim(t *testing.T) {
	t64 := FPGATime(Kintex7(), 1<<20, 4096, 64)
	t256 := FPGATime(Kintex7(), 1<<20, 4096, 256)
	ratio := t256.Seconds() / t64.Seconds()
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("d=256/d=64 time ratio = %v, want ~4 (streamed bits)", ratio)
	}
}

// TestModelsRefuseZeroPlatform: the GPU and FPGA models panic on a platform
// that carries no constants for them, rather than charge zero time.
func TestModelsRefuseZeroPlatform(t *testing.T) {
	refuses := func(t *testing.T, label string, model func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted", label)
			}
		}()
		model()
	}
	t.Run("gpu", func(t *testing.T) {
		refuses(t, "GPUTime on a zero platform", func() { GPUTime(Platform{}, 1, 1) })
		refuses(t, "GPUTime on a CPU platform", func() { GPUTime(XeonE5(), 1, 1) })
	})
	t.Run("fpga", func(t *testing.T) {
		refuses(t, "FPGACycles on a zero platform", func() { FPGACycles(Platform{}, 1, 1, 64) })
		refuses(t, "FPGATime on a GPU platform", func() { FPGATime(TitanX(), 1, 1, 64) })
	})
}
