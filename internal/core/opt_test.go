package core

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/ap"
	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/stats"
)

// ---- Vector packing (§VI-A, Fig. 5) ----

// TestPackedMatchesPlain: the packed design must report the same cycles as
// per-vector macros for the same dataset and queries.
func TestPackedMatchesPlain(t *testing.T) {
	rng := stats.NewRNG(101)
	const dim, n = 20, 8
	ds := bitvec.RandomDataset(rng, n, dim)
	l := NewLayout(dim)
	queries := []bitvec.Vector{bitvec.Random(rng, dim), bitvec.Random(rng, dim)}
	stream := BuildStream(queries, l)

	plainNet := automata.NewNetwork()
	BuildLinear(plainNet, ds, l)
	plainReports := automata.MustSimulator(plainNet).Run(stream)

	packedNet := automata.NewNetwork()
	BuildPacked(packedNet, ds, l, 0)
	packedReports := automata.MustSimulator(packedNet).Run(stream)

	key := func(r automata.Report) [2]int { return [2]int{int(r.ReportID), r.Cycle} }
	plainSet := map[[2]int]bool{}
	for _, r := range plainReports {
		plainSet[key(r)] = true
	}
	if len(plainReports) != len(packedReports) {
		t.Fatalf("report counts: plain %d, packed %d", len(plainReports), len(packedReports))
	}
	for _, r := range packedReports {
		if !plainSet[key(r)] {
			t.Errorf("packed report %v not produced by plain design", r)
		}
	}
}

// Property: packing preserves kNN results end to end.
func TestPackedKNNProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		const dim, n, k = 12, 10, 3
		ds := bitvec.RandomDataset(rng, n, dim)
		q := bitvec.Random(rng, dim)
		l := NewLayout(dim)
		net := automata.NewNetwork()
		BuildPacked(net, ds, l, 0)
		reports := automata.MustSimulator(net).Run(BuildQueryStream(q, l))
		decoded, err := DecodeReports(reports, l, 1, n, 0)
		if err != nil {
			return false
		}
		got := TopK(decoded[0], k)
		want := knn.Linear(ds, q, k)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPackedSTECostMatchesActual(t *testing.T) {
	rng := stats.NewRNG(55)
	for _, c := range []struct{ dim, group int }{{16, 2}, {32, 4}, {64, 8}} {
		l := NewLayout(c.dim)
		ds := bitvec.RandomDataset(rng, c.group, c.dim)
		net := automata.NewNetwork()
		BuildPacked(net, ds, l, 0)
		if got, want := net.Stats().STEs, PackedSTECost(l, c.group); got != want {
			t.Errorf("d=%d g=%d: actual STEs %d != PackedSTECost %d", c.dim, c.group, got, want)
		}
	}
}

func TestPackingSavingsGrowWithGroup(t *testing.T) {
	l := NewLayout(64)
	prev := 0.0
	for _, g := range []int{1, 2, 4, 8} {
		s := PackingSavings(l, g)
		if s <= prev {
			t.Errorf("savings at group %d = %v, not increasing (prev %v)", g, s, prev)
		}
		prev = s
	}
	// Table VIII reports ~2.9-3.3x at group 4 for the paper's model; ours is
	// the same order.
	if s := PackingSavings(NewLayout(64), 4); s < 2 || s > 6 {
		t.Errorf("group-4 savings = %v, expected within [2,6]", s)
	}
}

// TestPackingRoutingPressure reproduces the §VI-A observation: the packed
// design's ladder has high fan-out, raising routing pressure versus the
// plain design. Each ladder state fans out to the next rung plus one
// collector per packed vector, so a group larger than the fan-out budget
// must register pressure.
func TestPackingRoutingPressure(t *testing.T) {
	rng := stats.NewRNG(66)
	const dim, n = 64, 24
	ds := bitvec.RandomDataset(rng, n, dim)
	l := NewLayout(dim)
	cfg := ap.Gen1()

	plainNet := automata.NewNetwork()
	BuildLinear(plainNet, ds, l)
	plain, err := ap.Compile(plainNet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	packedNet := automata.NewNetwork()
	BuildPacked(packedNet, ds, l, 0)
	packed, err := ap.Compile(packedNet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if packed.STEs >= plain.STEs {
		t.Errorf("packed STEs %d not below plain %d", packed.STEs, plain.STEs)
	}
	if packed.RoutingPressure <= plain.RoutingPressure {
		t.Errorf("packed routing pressure %d not above plain %d (paper §VI-A expects routing pressure)",
			packed.RoutingPressure, plain.RoutingPressure)
	}
}

// ---- Symbol stream multiplexing (§VI-B, Fig. 6) ----

func TestMuxMatchesCPU(t *testing.T) {
	rng := stats.NewRNG(2021)
	const dim, n, k, slices = 16, 12, 4, 7
	ds := bitvec.RandomDataset(rng, n, dim)
	l := NewLayout(dim)
	queries := make([]bitvec.Vector, 10) // more than one window, ragged tail
	for i := range queries {
		queries[i] = bitvec.Random(rng, dim)
	}
	net := automata.NewNetwork()
	BuildMux(net, ds, l, slices)
	sim := automata.MustSimulator(net)
	reports := sim.Run(BuildMuxStream(queries, l, slices))
	decoded, err := DecodeMuxReports(reports, l, slices, len(queries), n, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := knn.ScanBatch(context.Background(), ds, queries, k, knn.ScanConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		got := TopK(decoded[qi], k)
		if len(got) != len(want[qi]) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want[qi]))
		}
		for j := range want[qi] {
			if got[j] != want[qi][j] {
				t.Errorf("query %d rank %d: mux %v, cpu %v", qi, j, got[j], want[qi][j])
			}
		}
	}
}

func TestMuxStreamSharesWindows(t *testing.T) {
	l := NewLayout(8)
	rng := stats.NewRNG(3)
	queries := make([]bitvec.Vector, 14)
	for i := range queries {
		queries[i] = bitvec.Random(rng, 8)
	}
	stream := BuildMuxStream(queries, l, 7)
	if got, want := len(stream), 2*l.StreamLen(); got != want {
		t.Errorf("14 queries over 7 slices: stream %d symbols, want %d", got, want)
	}
	plain := BuildStream(queries, l)
	if len(plain) != 7*len(stream) {
		t.Errorf("mux should be 7x shorter: plain %d, mux %d", len(plain), len(stream))
	}
}

func TestMuxResourceCost(t *testing.T) {
	// Replicating 7 slices costs ~7x the STEs (§VI-B: infeasible on Gen 1).
	rng := stats.NewRNG(4)
	ds := bitvec.RandomDataset(rng, 4, 16)
	l := NewLayout(16)
	one := automata.NewNetwork()
	BuildMux(one, ds, l, 1)
	seven := automata.NewNetwork()
	BuildMux(seven, ds, l, 7)
	ratio := float64(seven.Stats().STEs) / float64(one.Stats().STEs)
	if ratio < 6.9 || ratio > 7.1 {
		t.Errorf("7-slice STE ratio = %v, want ~7", ratio)
	}
}

func TestMuxRejectsBadSlices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("slices=8 did not panic")
		}
	}()
	BuildMux(automata.NewNetwork(), bitvec.RandomDataset(stats.NewRNG(1), 2, 8), NewLayout(8), 8)
}

// ---- Statistical activation reduction (§VI-C, Fig. 7, Table VI) ----

// TestReductionAutomataMatchesModel validates SuppressFaithful against the
// cycle-accurate reduction automaton.
func TestReductionAutomataMatchesModel(t *testing.T) {
	rng := stats.NewRNG(31415)
	const dim, p, kPrime = 16, 8, 2
	l := NewLayout(dim)
	for trial := 0; trial < 25; trial++ {
		ds := bitvec.RandomDataset(rng, p, dim)
		q := bitvec.Random(rng, dim)
		net := automata.NewNetwork()
		BuildReductionGroup(net, ds, l, kPrime, 0)
		reports := automata.MustSimulator(net).Run(BuildQueryStream(q, l))
		delivered := map[int]bool{}
		for _, r := range reports {
			delivered[int(r.ReportID)] = true
		}
		ihds := make([]int, p)
		for i := range ihds {
			ihds[i] = dim - ds.Hamming(i, q)
		}
		want := SuppressGroup(ihds, kPrime, SuppressFaithful)
		for i := range want {
			if delivered[i] != want[i] {
				t.Errorf("trial %d vector %d (ihd %d): automata delivered=%v, model=%v (ihds %v)",
					trial, i, ihds[i], delivered[i], want[i], ihds)
			}
		}
	}
}

func TestSuppressGroupStrict(t *testing.T) {
	ihds := []int{10, 9, 9, 8, 7, 3}
	// kPrime=1: strict delivers nothing (the paper's 100%-incorrect row).
	got := SuppressGroup(ihds, 1, SuppressStrict)
	for i, d := range got {
		if d {
			t.Errorf("kPrime=1 strict delivered vector %d", i)
		}
	}
	// kPrime=2: top distinct level only (the single 10).
	got = SuppressGroup(ihds, 2, SuppressStrict)
	want := []bool{true, false, false, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("kPrime=2 strict vector %d = %v, want %v", i, got[i], want[i])
		}
	}
	// kPrime=3: levels 10 and 9 (ties delivered together).
	got = SuppressGroup(ihds, 3, SuppressStrict)
	want = []bool{true, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("kPrime=3 strict vector %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSuppressGroupFaithfulSupersetOfStrict(t *testing.T) {
	f := func(seed uint64, rawK uint8) bool {
		rng := stats.NewRNG(seed)
		kPrime := int(rawK)%4 + 1
		ihds := make([]int, 16)
		for i := range ihds {
			ihds[i] = rng.Intn(20)
		}
		strict := SuppressGroup(ihds, kPrime, SuppressStrict)
		faithful := SuppressGroup(ihds, kPrime, SuppressFaithful)
		for i := range strict {
			if strict[i] && !faithful[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRunReductionStrictKPrime1AlwaysIncorrect(t *testing.T) {
	res := RunReduction(ReductionExperiment{
		Dim: 64, N: 256, P: 16, K: 2, KPrime: 1, Runs: 20, Mode: SuppressStrict,
	}, stats.NewRNG(7))
	if res.IncorrectPercent != 100 {
		t.Errorf("strict kPrime=1 incorrect%% = %v, want 100 (Table VI row 1)", res.IncorrectPercent)
	}
}

func TestRunReductionFaithfulHighKPrimeCorrect(t *testing.T) {
	res := RunReduction(ReductionExperiment{
		Dim: 64, N: 256, P: 16, K: 2, KPrime: 4, Runs: 20, Mode: SuppressFaithful,
	}, stats.NewRNG(8))
	if res.Incorrect != 0 {
		t.Errorf("faithful kPrime=4 had %d incorrect runs, want 0", res.Incorrect)
	}
	if res.BandwidthFactor <= 1 {
		t.Errorf("bandwidth factor = %v, want > 1", res.BandwidthFactor)
	}
}

// TestReductionEngineMatchesMonteCarlo is item 6's census of §VI-C: the
// reduction network on a simulated board and RunReduction's faithful host
// Monte Carlo replay the same draws — each run draws the dataset and then
// the query from one seed — and must agree on the two totals Table VI is
// made of: the reports the board delivers and the runs whose top-k is not
// exact. The cells are ones where suppression gets some runs wrong.
func TestReductionEngineMatchesMonteCarlo(t *testing.T) {
	for _, exp := range []ReductionExperiment{
		{Dim: 32, N: 128, P: 16, K: 16, KPrime: 1, Runs: 30},
		{Dim: 16, N: 64, P: 16, K: 8, KPrime: 1, Runs: 30},
		{Dim: 32, N: 128, P: 8, K: 16, KPrime: 1, Runs: 30},
	} {
		exp.Mode = SuppressFaithful
		const seed = 6006
		want := RunReduction(exp, stats.NewRNG(seed))
		rng := stats.NewRNG(seed)
		reports, incorrect := 0, 0
		for run := 0; run < exp.Runs; run++ {
			ds := bitvec.RandomDataset(rng, exp.N, exp.Dim)
			q := bitvec.Random(rng, exp.Dim)
			board := ap.NewBoard(ap.Gen2())
			eng, err := NewApproxEngine(board, ds, EngineOptions{Capacity: exp.N}, exp.P, exp.KPrime)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Query([]bitvec.Vector{q}, exp.K)
			if err != nil {
				t.Fatal(err)
			}
			reports += board.ReportsEmitted()
			if !neighborsEqual(got[0], knn.Linear(ds, q, exp.K)) {
				incorrect++
			}
		}
		t.Logf("%+v: %d of %d runs incorrect, %.2f reports per run", exp, incorrect, exp.Runs, float64(reports)/float64(exp.Runs))
		if want.Incorrect == 0 {
			t.Errorf("%+v: no run incorrect; the cell checks nothing suppression gets wrong", exp)
		}
		if incorrect != want.Incorrect || float64(reports)/float64(exp.Runs) != want.DeliveredPerRun {
			t.Errorf("%+v: network %d incorrect runs and %.2f reports per run, Monte Carlo %d and %.2f",
				exp, incorrect, float64(reports)/float64(exp.Runs), want.Incorrect, want.DeliveredPerRun)
		}
	}
}

// ---- §VII-A counter increment extension ----

// TestMultiDimMacroMatchesCPU: the extension's macros answer what the CPU
// does, on the closed form Table VIII's latency gain is computed from — a
// window of StreamLen symbols, each vector reporting on ReportCycle of its
// inverted Hamming distance.
func TestMultiDimMacroMatchesCPU(t *testing.T) {
	rng := stats.NewRNG(999)
	for _, dim := range []int{7, 13, 21, 30} {
		l := NewMultiDimLayout(dim)
		ds := bitvec.RandomDataset(rng, 9, dim)
		q := bitvec.Random(rng, dim)
		net := automata.NewNetwork()
		for i := 0; i < ds.Len(); i++ {
			BuildMultiDimMacro(net, ds.At(i), l, int32(i))
		}
		sim := automata.MustSimulator(net)
		sim.ExtendedIncrement = true
		stream := BuildMultiDimStream([]bitvec.Vector{q}, l)
		if len(stream) != l.StreamLen() {
			t.Errorf("dim %d: %d-symbol window, closed form %d", dim, len(stream), l.StreamLen())
		}
		reports := sim.Run(stream)
		if len(reports) != ds.Len() {
			t.Fatalf("dim %d: %d reports, want %d", dim, len(reports), ds.Len())
		}
		for _, r := range reports {
			if want := l.ReportCycle(dim - ds.Hamming(int(r.ReportID), q)); r.Cycle != want {
				t.Errorf("dim %d: vector %d reported at %d, closed form %d", dim, r.ReportID, r.Cycle, want)
			}
		}
		decoded, err := DecodeMultiDimReports(reports, l, 1, ds.Len(), 0)
		if err != nil {
			t.Fatal(err)
		}
		got := TopK(decoded[0], 3)
		want := knn.Linear(ds, q, 3)
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("dim %d rank %d: ext %v, cpu %v", dim, j, got[j], want[j])
			}
		}
	}
}

func TestMultiDimLatencyGain(t *testing.T) {
	l := NewMultiDimLayout(128)
	// Paper §VII-A: d + d/7 cycles vs 2d is 1.75x.
	if g := l.SpeedupOverPlain(); g < 1.7 || g > 1.8 {
		t.Errorf("speedup = %v, want ~1.75", g)
	}
	plainLen := NewLayout(128).StreamLen()
	if l.StreamLen() >= plainLen {
		t.Errorf("multi-dim stream %d not shorter than plain %d", l.StreamLen(), plainLen)
	}
}

func TestMultiDimRequiresExtension(t *testing.T) {
	// Without ExtendedIncrement the counter saturates at +1 per cycle and
	// distances come out wrong for a vector matching >1 dim per symbol.
	dim := 14
	l := NewMultiDimLayout(dim)
	v := bitvec.New(dim) // all zeros
	q := bitvec.New(dim) // identical: ihd = 14, two increments/cycle needed
	net := automata.NewNetwork()
	BuildMultiDimMacro(net, v, l, 0)
	sim := automata.MustSimulator(net)
	reports := sim.Run(BuildMultiDimStream([]bitvec.Vector{q}, l))
	if len(reports) == 1 && reports[0].Cycle == l.ReportCycle(dim) {
		t.Error("baseline counter reproduced extension timing; test cannot distinguish")
	}
	sim2 := automata.MustSimulator(net)
	sim2.ExtendedIncrement = true
	reports = sim2.Run(BuildMultiDimStream([]bitvec.Vector{q}, l))
	if len(reports) != 1 || reports[0].Cycle != l.ReportCycle(dim) {
		t.Errorf("extension reports = %v, want cycle %d", reports, l.ReportCycle(dim))
	}
}

// ---- §VII-B dynamic counter thresholds ----

func TestComparisonMacro(t *testing.T) {
	net := automata.NewNetwork()
	enA := net.AddSTE(automata.SingleClass('a'), automata.WithStart(automata.StartAll))
	enB := net.AddSTE(automata.SingleClass('b'), automata.WithStart(automata.StartAll))
	rst := net.AddSTE(automata.SingleClass('r'), automata.WithStart(automata.StartAll))
	BuildComparisonMacro(net, enA, enB, rst, 1)
	sim := automata.MustSimulator(net)
	// After "aab": countA=2, countB=1 -> A>B; out STE reports while the
	// comparison holds.
	reports := sim.Run([]byte("aab..."))
	if len(reports) == 0 {
		t.Fatal("A>B produced no reports")
	}
	// "abb": countA=1, countB=2 -> never A>B after B catches up... A leads
	// transiently after the first 'a'; after reset + "bb", A=0 <= B so no
	// report in the tail.
	sim2 := automata.MustSimulator(net)
	tail := sim2.Run([]byte("r.bb..."))
	for _, r := range tail {
		if r.Cycle >= 3 {
			t.Errorf("A<=B reported at cycle %d", r.Cycle)
		}
	}
}

func TestDynamicCounterValidation(t *testing.T) {
	net := automata.NewNetwork()
	ste := net.AddSTE(automata.AllClass())
	defer func() {
		if recover() == nil {
			t.Error("dynamic counter with STE source did not panic")
		}
	}()
	net.AddDynamicCounter(ste)
}

// ---- §VII-C STE decomposition ----

func TestDecompositionWidthsOfKNNMacro(t *testing.T) {
	// Every STE in the plain kNN macro uses at most one bit of the symbol:
	// the §VII-C observation that kNN wastes 8-input STEs as 1-input LUTs.
	net := automata.NewNetwork()
	BuildMacro(net, bitvec.Random(stats.NewRNG(1), 64), NewLayout(64), 0)
	rep := AnalyzeDecomposition(net)
	for w := 2; w <= 8; w++ {
		if rep.Widths[w] != 0 {
			t.Errorf("%d STEs require %d bits; kNN macro should need at most 1", rep.Widths[w], w)
		}
	}
	if rep.Widths[1] == 0 {
		t.Error("no 1-bit STEs found")
	}
}

func TestDecompositionSavingsNearLinear(t *testing.T) {
	// Table VII: savings approach the theoretical x because the Hamming
	// macro dominates. With every state at width <= 1, ours are exactly
	// linear up to x where 8-log2(x) >= 1, i.e. through x=128.
	net := automata.NewNetwork()
	BuildLinear(net, bitvec.RandomDataset(stats.NewRNG(2), 4, 64), NewLayout(64))
	rep := AnalyzeDecomposition(net)
	for _, x := range []int{1, 2, 4, 8, 16, 32} {
		s := rep.Savings(x)
		theoretical := float64(x)
		if s < 0.9*theoretical || s > theoretical+1e-9 {
			t.Errorf("savings(%d) = %v, want within [0.9x, x] of theoretical %v", x, s, theoretical)
		}
	}
}

func TestDecompositionSavingsBoundedByWideStates(t *testing.T) {
	// A design full of 8-bit-exact classes cannot be decomposed.
	net := automata.NewNetwork()
	for i := 0; i < 10; i++ {
		net.AddSTE(automata.SingleClass(byte(i)), automata.WithStart(automata.StartAll))
	}
	rep := AnalyzeDecomposition(net)
	if s := rep.Savings(4); s != 1 {
		t.Errorf("savings of undecomposable design = %v, want 1", s)
	}
}

func TestDecompositionRejectsBadFactor(t *testing.T) {
	rep := &DecompositionReport{}
	defer func() {
		if recover() == nil {
			t.Error("factor 3 did not panic")
		}
	}()
	rep.Savings(3)
}

// ---- §VII-D technology scaling ----

func TestTechnologyScaling(t *testing.T) {
	// Paper Table VIII: 50nm -> 28nm is 3.19x.
	if got := TechnologyScaling(28); got < 3.15 || got < 3.0 || got > 3.25 {
		t.Errorf("TechnologyScaling(28) = %v, want ~3.19", got)
	}
	if got := TechnologyScaling(50); got != 1 {
		t.Errorf("TechnologyScaling(50) = %v, want 1", got)
	}
}
