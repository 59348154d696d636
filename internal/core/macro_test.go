package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ap"
	"repro/internal/aperr"
	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/stats"
	"repro/internal/workload"
)

// query answers a batch on a board engine the way its production callers
// do: encoded for the engine's layout and streamed through QueryEncoded.
func query(e *Engine, queries []bitvec.Vector, k int) ([][]knn.Neighbor, error) {
	batch, err := EncodeBatch(queries, e.layout)
	if err != nil {
		return nil, err
	}
	return e.QueryEncoded(context.Background(), batch, k, nil, 0)
}

func mustBits(t *testing.T, s string) bitvec.Vector {
	t.Helper()
	v, err := bitvec.ParseBits(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestLayoutValidate(t *testing.T) {
	if err := NewLayout(64).Validate(); err != nil {
		t.Errorf("default layout invalid: %v", err)
	}
	if err := PaperLayout(4).Validate(); err != nil {
		t.Errorf("paper layout invalid: %v", err)
	}
	bad := NewLayout(64)
	bad.DelaySlack = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero delay slack accepted for d=64")
	}
	if err := (Layout{Dim: 0, CollectorFanIn: 16}).Validate(); err == nil {
		t.Error("zero dim accepted")
	}
}

func TestLayoutCollectorDepth(t *testing.T) {
	cases := []struct{ d, fanIn, want int }{
		{4, 16, 1}, {16, 16, 1}, {17, 16, 2}, {128, 16, 2}, {256, 16, 2},
		{257, 16, 3}, {1, 16, 1},
	}
	for _, c := range cases {
		l := Layout{Dim: c.d, CollectorFanIn: c.fanIn}
		if got := l.CollectorDepth(); got != c.want {
			t.Errorf("depth(d=%d,f=%d) = %d, want %d", c.d, c.fanIn, got, c.want)
		}
	}
}

func TestReportCycleRoundTrip(t *testing.T) {
	for _, d := range []int{4, 16, 64, 128, 256} {
		l := NewLayout(d)
		for ihd := 0; ihd <= d; ihd++ {
			c := l.ReportCycle(ihd)
			if c >= l.StreamLen() {
				t.Fatalf("d=%d ihd=%d: report cycle %d outside stream of %d", d, ihd, c, l.StreamLen())
			}
			back, err := l.IHDFromCycle(c)
			if err != nil || back != ihd {
				t.Fatalf("d=%d ihd=%d: round trip gave %d, %v", d, ihd, back, err)
			}
		}
	}
}

func TestReportCycleMonotonic(t *testing.T) {
	// Closer vectors (higher IHD) must report strictly earlier.
	l := NewLayout(32)
	for ihd := 1; ihd <= 32; ihd++ {
		if l.ReportCycle(ihd) >= l.ReportCycle(ihd-1) {
			t.Fatalf("sort not monotonic at ihd=%d", ihd)
		}
	}
}

// runMacro builds a single macro for vector v, streams query q, and returns
// the report cycles.
func runMacro(t *testing.T, v, q bitvec.Vector, l Layout) []automata.Report {
	t.Helper()
	net := automata.NewNetwork()
	BuildMacro(net, v, l, 0)
	sim := automata.MustSimulator(net)
	return sim.Run(BuildQueryStream(q, l))
}

// TestFig3GoldenTrace replicates the paper's Fig. 3 execution exactly:
// vector {1,0,1,1}, query {1,0,0,1}, d=4, paper layout. The paper numbers
// time steps from t=1; our cycles are 0-based, so cycle = t-1.
func TestFig3GoldenTrace(t *testing.T) {
	l := PaperLayout(4)
	v := mustBits(t, "1011")
	q := mustBits(t, "1001")

	net := automata.NewNetwork()
	m := BuildMacro(net, v, l, 0)
	sim := automata.MustSimulator(net)

	activeAt := map[automata.ElementID][]int{}
	countAt := map[int]int{}
	sim.Trace = func(tc automata.CycleTrace) {
		for _, id := range tc.Active {
			activeAt[id] = append(activeAt[id], tc.Cycle)
		}
		for _, c := range tc.Counters {
			countAt[tc.Cycle] = c.Count
		}
	}
	stream := BuildQueryStream(q, l)
	if len(stream) != 12 {
		t.Fatalf("stream length %d, want 12 (Fig. 3 has t=1..12)", len(stream))
	}
	reports := sim.Run(stream)

	// Fig. 3: guard active at t=1 (cycle 0).
	wantActive := map[string][]int{
		"guard": {0},
		// X0 matches at t=2, X1 at t=3, X3 at t=5; X2 does not match.
		"x0": {1}, "x1": {2}, "x2": nil, "x3": {4},
		// Sort state active t=6..11 (cycles 5..10).
		"sort": {5, 6, 7, 8, 9, 10},
		// EOF state at t=12 (cycle 11).
		"eof": {11},
		// Reporting state at t=9 (cycle 8).
		"rep": {8},
	}
	ids := map[string]automata.ElementID{
		"guard": m.Guard, "x0": m.Matches[0], "x1": m.Matches[1],
		"x2": m.Matches[2], "x3": m.Matches[3],
		"sort": m.Sort, "eof": m.EOF, "rep": m.Report,
	}
	for name, want := range wantActive {
		got := activeAt[ids[name]]
		if len(got) != len(want) {
			t.Errorf("%s active cycles = %v, want %v", name, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s active cycles = %v, want %v", name, got, want)
				break
			}
		}
	}
	// Fig. 3 counter values: count=1 at t=4, 2 at t=5, 2 at t=6, 3 at t=7,
	// 4 at t=8 (threshold pulse), then 5,6,7,8 through t=12.
	wantCounts := map[int]int{3: 1, 4: 2, 5: 2, 6: 3, 7: 4, 8: 5, 9: 6, 10: 7, 11: 8}
	for cycle, want := range wantCounts {
		if got := countAt[cycle]; got != want {
			t.Errorf("counter at cycle %d (t=%d) = %d, want %d", cycle, cycle+1, got, want)
		}
	}
	if len(reports) != 1 || reports[0].Cycle != 8 {
		t.Errorf("reports = %v, want single report at cycle 8 (t=9)", reports)
	}
}

// fig4Cycles runs the Fig. 4 scenario — A={1,0,1,1}, B={0,0,0,0}, query
// {1,0,0,1} — and returns the two report cycles.
func fig4Cycles(t *testing.T, l Layout) (cycleA, cycleB int) {
	t.Helper()
	net := automata.NewNetwork()
	BuildMacro(net, mustBits(t, "1011"), l, 0) // A, IHD 3, last dim matches
	BuildMacro(net, mustBits(t, "0000"), l, 1) // B, IHD 2, last dim differs
	sim := automata.MustSimulator(net)
	reports := sim.Run(BuildQueryStream(mustBits(t, "1001"), l))
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	cycleA, cycleB = -1, -1
	for _, r := range reports {
		if r.ReportID == 0 {
			cycleA = r.Cycle
		} else {
			cycleB = r.Cycle
		}
	}
	if cycleA < 0 || cycleB < 0 {
		t.Fatalf("missing report: %v", reports)
	}
	return cycleA, cycleB
}

// TestFig4TemporalOrder replicates Fig. 4 with the monotonic layout: A must
// report strictly before B because it has the higher inverted Hamming
// distance.
func TestFig4TemporalOrder(t *testing.T) {
	cycleA, cycleB := fig4Cycles(t, NewLayout(4))
	if cycleA >= cycleB {
		t.Errorf("A reported at %d, B at %d; want A strictly first", cycleA, cycleB)
	}
}

// TestFig4PaperLayoutHazard pins down the reproduction finding documented in
// README.md: under the paper's own Fig. 2c/3 timing, the sort state's first
// increment overlaps the final collector flush, so A (IHD 3, final dimension
// matched) and B (IHD 2, final dimension unmatched) report on the SAME
// cycle, contradicting the strict order Fig. 4 depicts. The default layout
// (delay slack = collector depth) removes the hazard; this test documents
// the faithful-to-the-paper behaviour.
func TestFig4PaperLayoutHazard(t *testing.T) {
	cycleA, cycleB := fig4Cycles(t, PaperLayout(4))
	if cycleA != cycleB {
		t.Errorf("paper layout: A at %d, B at %d; the documented hazard expects a collision", cycleA, cycleB)
	}
}

// Property: for the monotonic layout, every vector reports exactly once per
// query at the cycle the layout formula predicts.
func TestMacroReportCycleMatchesFormula(t *testing.T) {
	f := func(seedV, seedQ uint64, rawDim uint8) bool {
		dim := int(rawDim)%33 + 1
		l := NewLayout(dim)
		v := bitvec.Random(stats.NewRNG(seedV), dim)
		q := bitvec.Random(stats.NewRNG(seedQ), dim)
		net := automata.NewNetwork()
		BuildMacro(net, v, l, 0)
		sim := automata.MustSimulator(net)
		reports := sim.Run(BuildQueryStream(q, l))
		if len(reports) != 1 {
			return false
		}
		return reports[0].Cycle == l.ReportCycle(v.InvertedHamming(q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestMacroAllAndNoneMatch covers the IHD extremes.
func TestMacroAllAndNoneMatch(t *testing.T) {
	dim := 8
	l := NewLayout(dim)
	v := bitvec.Random(stats.NewRNG(3), dim)
	// Identical query: ihd = d.
	reports := runMacro(t, v, v.Clone(), l)
	if len(reports) != 1 || reports[0].Cycle != l.ReportCycle(dim) {
		t.Errorf("identical query: reports = %v, want cycle %d", reports, l.ReportCycle(dim))
	}
	// Complement query: ihd = 0.
	comp := v.Clone()
	for i := 0; i < dim; i++ {
		comp.Flip(i)
	}
	reports = runMacro(t, v, comp, l)
	if len(reports) != 1 || reports[0].Cycle != l.ReportCycle(0) {
		t.Errorf("complement query: reports = %v, want cycle %d", reports, l.ReportCycle(0))
	}
}

// TestMacroMultiQueryStream checks that EOF resets state between queries and
// windows decode independently.
func TestMacroMultiQueryStream(t *testing.T) {
	dim := 12
	l := NewLayout(dim)
	rng := stats.NewRNG(17)
	v := bitvec.Random(rng, dim)
	queries := []bitvec.Vector{bitvec.Random(rng, dim), v.Clone(), bitvec.Random(rng, dim)}
	net := automata.NewNetwork()
	BuildMacro(net, v, l, 0)
	sim := automata.MustSimulator(net)
	reports := sim.Run(BuildStream(queries, l))
	if len(reports) != len(queries) {
		t.Fatalf("got %d reports for %d queries", len(reports), len(queries))
	}
	for i, q := range queries {
		window, off := l.WindowOf(reports[i].Cycle)
		if window != i {
			t.Errorf("report %d in window %d, want %d", i, window, i)
		}
		ihd, err := l.IHDFromCycle(off)
		if err != nil {
			t.Fatal(err)
		}
		if want := v.InvertedHamming(q); ihd != want {
			t.Errorf("query %d decoded ihd = %d, want %d", i, ihd, want)
		}
	}
}

func TestMacroSTECost(t *testing.T) {
	for _, d := range []int{4, 16, 64, 128, 256} {
		l := NewLayout(d)
		net := automata.NewNetwork()
		BuildMacro(net, bitvec.Random(stats.NewRNG(uint64(d)), d), l, 0)
		stats := net.Stats()
		if stats.STEs != MacroSTECost(l) {
			t.Errorf("d=%d: actual STEs %d != MacroSTECost %d", d, stats.STEs, MacroSTECost(l))
		}
		if stats.Counters != 1 {
			t.Errorf("d=%d: counters = %d, want 1", d, stats.Counters)
		}
	}
}

// TestEngineMatchesCPU is the central integration property: the AP engine
// (cycle-accurate simulation, temporal sort, partial reconfiguration,
// host-side merge) must return exactly the CPU baseline's answer.
func TestEngineMatchesCPU(t *testing.T) {
	rng := stats.NewRNG(2025)
	const dim, n, numQ, k = 24, 90, 6, 5
	ds := bitvec.RandomDataset(rng, n, dim)
	queries := make([]bitvec.Vector, numQ)
	for i := range queries {
		queries[i] = bitvec.Random(rng, dim)
	}
	// Capacity 32 forces 3 partitions -> exercises reconfiguration merging.
	engine, err := NewEngine(ap.NewBoard(ap.Gen2()), ds, EngineOptions{Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	if engine.Partitions() != 3 {
		t.Fatalf("partitions = %d, want 3", engine.Partitions())
	}
	got, err := query(engine, queries, k)
	if err != nil {
		t.Fatal(err)
	}
	want, err := knn.ScanBatch(context.Background(), ds, queries, k, knn.ScanConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got[qi]), len(want[qi]))
		}
		for j := range want[qi] {
			if got[qi][j] != want[qi][j] {
				t.Errorf("query %d rank %d: AP %v, CPU %v", qi, j, got[qi][j], want[qi][j])
			}
		}
	}
}

// TestFastEngineMatchesEngine validates the fast model against the
// cycle-accurate engine where "a partition-wise merge equals one global
// top-k" could break: ties straddling every partition boundary, k at and
// around the partition capacity and the dataset size, a ragged last
// partition, a dataset smaller than one partition, every kernel stride
// (d=192 is stride 3, the portable loop on every host) and batches of
// 1, 7 and 33 queries.
func TestFastEngineMatchesEngine(t *testing.T) {
	cases := []struct{ dim, n, capacity, numQ int }{
		{dim: 32, n: 70, capacity: 25, numQ: 33},
		{dim: 32, n: 10, capacity: 25, numQ: 7}, // n < capacity
		{dim: 64, n: 50, capacity: 16, numQ: 7},
		{dim: 128, n: 30, capacity: 8, numQ: 7},
		{dim: 192, n: 21, capacity: 6, numQ: 1},
		{dim: 256, n: 14, capacity: 4, numQ: 1},
	}
	for _, c := range cases {
		rng := stats.NewRNG(uint64(404 + c.dim + c.n))
		for _, ds := range []*bitvec.Dataset{
			bitvec.RandomDataset(rng, c.n, c.dim),
			workload.TieHeavy(rng, c.n, c.dim, c.capacity),
		} {
			// Half the queries are dataset vectors: distance-0 ties.
			queries := make([]bitvec.Vector, c.numQ)
			for i := range queries {
				if i%2 == 0 {
					queries[i] = ds.At(rng.Intn(c.n))
				} else {
					queries[i] = bitvec.Random(rng, c.dim)
				}
			}
			opts := EngineOptions{Capacity: c.capacity}
			engine, err := NewEngine(ap.NewBoard(ap.Gen2()), ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := NewFastEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, c.capacity, c.capacity + 1, c.n, c.n + 5} {
				want, err := query(engine, queries, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fast.Query(queries, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("d=%d n=%d k=%d: %d lists, want %d", c.dim, c.n, k, len(got), len(want))
				}
				for qi := range want {
					if wantLen := min(k, c.n); len(got[qi]) != wantLen || len(want[qi]) != wantLen {
						t.Fatalf("d=%d n=%d k=%d query %d: fast %d / engine %d neighbors, want %d",
							c.dim, c.n, k, qi, len(got[qi]), len(want[qi]), wantLen)
					}
					for j := range want[qi] {
						if got[qi][j] != want[qi][j] {
							t.Fatalf("d=%d n=%d k=%d query %d rank %d: fast %v, engine %v",
								c.dim, c.n, k, qi, j, got[qi][j], want[qi][j])
						}
					}
				}
			}
		}
	}
}

// TestFastEngineResultShapes pins what callers see at the edges: an empty
// batch is an empty non-nil result and no error, a bad k or dimensionality
// is this package's error with the shared sentinel.
func TestFastEngineResultShapes(t *testing.T) {
	rng := stats.NewRNG(405)
	ds := bitvec.RandomDataset(rng, 20, 32)
	fast, err := NewFastEngine(ds, EngineOptions{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fast.Query(nil, 3); err != nil || got == nil || len(got) != 0 {
		t.Errorf("empty batch: %v, %v; want an empty non-nil result", got, err)
	}
	q := []bitvec.Vector{bitvec.Random(rng, 32)}
	for _, k := range []int{0, -4} {
		_, err := fast.Query(q, k)
		if !errors.Is(err, aperr.ErrBadK) || !strings.HasPrefix(err.Error(), "core: got k=") {
			t.Errorf("k=%d: %v, want core's ErrBadK", k, err)
		}
	}
	_, err = fast.Query([]bitvec.Vector{q[0], bitvec.Random(rng, 64)}, 3)
	if !errors.Is(err, aperr.ErrDimMismatch) || !strings.HasPrefix(err.Error(), "core: query 1 has dim 64, want 32") {
		t.Errorf("wrong dim: %v, want core's ErrDimMismatch", err)
	}
}

// Property: the cycle at which each vector's macro reports is the one
// Layout.ReportCycle gives for its inverted Hamming distance — the
// temporal-sort encoding the fast model and the meter assume.
func TestFastEngineReportCyclesMatchAutomata(t *testing.T) {
	rng := stats.NewRNG(808)
	const dim, n = 10, 12
	ds := bitvec.RandomDataset(rng, n, dim)
	q := bitvec.Random(rng, dim)
	l := NewLayout(dim)
	net := automata.NewNetwork()
	BuildLinear(net, ds, l)
	sim := automata.MustSimulator(net)
	reports := sim.Run(BuildQueryStream(q, l))
	if len(reports) != n {
		t.Fatalf("got %d reports, want %d", len(reports), n)
	}
	for _, r := range reports {
		if want := l.ReportCycle(dim - ds.Hamming(int(r.ReportID), q)); r.Cycle != want {
			t.Errorf("vector %d reported at %d, the layout says %d", r.ReportID, r.Cycle, want)
		}
	}
}

func TestEngineRejectsBadInputs(t *testing.T) {
	rng := stats.NewRNG(5)
	ds := bitvec.RandomDataset(rng, 10, 8)
	engine, err := NewEngine(ap.NewBoard(ap.Gen2()), ds, EngineOptions{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := query(engine, []bitvec.Vector{bitvec.Random(rng, 8)}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := query(engine, []bitvec.Vector{bitvec.Random(rng, 16)}, 1); err == nil {
		t.Error("wrong-dimension query accepted")
	}
}
