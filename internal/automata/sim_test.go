package automata

import (
	"testing"
)

// buildSequenceMatcher returns a network that reports when the exact byte
// sequence pat is seen, reporting on the cycle of the last byte.
func buildSequenceMatcher(pat string) *Network {
	net := NewNetwork()
	var prev ElementID = -1
	for i := 0; i < len(pat); i++ {
		opts := []STEOpt{WithName(string(pat[i]))}
		if i == 0 {
			opts = append(opts, WithStart(StartAll))
		}
		if i == len(pat)-1 {
			opts = append(opts, WithReport(1))
		}
		id := net.AddSTE(SingleClass(pat[i]), opts...)
		if prev >= 0 {
			net.Connect(prev, id)
		}
		prev = id
	}
	return net
}

func TestSequenceMatch(t *testing.T) {
	net := buildSequenceMatcher("abc")
	sim := MustSimulator(net)
	reports := sim.Run([]byte("xxabcxabcab"))
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2: %v", len(reports), reports)
	}
	if reports[0].Cycle != 4 || reports[1].Cycle != 8 {
		t.Errorf("report cycles = %d,%d want 4,8", reports[0].Cycle, reports[1].Cycle)
	}
	if reports[0].ReportID != 1 {
		t.Errorf("report ID = %d, want 1", reports[0].ReportID)
	}
}

func TestOverlappingMatches(t *testing.T) {
	// NFA semantics: overlapping occurrences all report.
	net := buildSequenceMatcher("aa")
	sim := MustSimulator(net)
	reports := sim.Run([]byte("aaaa"))
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3 (overlapping)", len(reports))
	}
}

func TestStartOfDataOnlyFirstCycle(t *testing.T) {
	net := NewNetwork()
	net.AddSTE(SingleClass('a'), WithStart(StartOfData), WithReport(7))
	sim := MustSimulator(net)
	if got := len(sim.Run([]byte("aa"))); got != 1 {
		t.Errorf("start-of-data matched %d times, want 1", got)
	}
	if got := len(sim.Run([]byte("ba"))); got != 0 {
		t.Errorf("start-of-data matched %d times on offset symbol, want 0", got)
	}
}

func TestStartAllEveryCycle(t *testing.T) {
	net := NewNetwork()
	net.AddSTE(SingleClass('a'), WithStart(StartAll), WithReport(7))
	sim := MustSimulator(net)
	if got := len(sim.Run([]byte("ababa"))); got != 3 {
		t.Errorf("all-input start matched %d times, want 3", got)
	}
}

func TestActivationLatencyIsOneCycle(t *testing.T) {
	// a -> b: b can only match the symbol AFTER a matched.
	net := NewNetwork()
	a := net.AddSTE(SingleClass('a'), WithStart(StartAll))
	b := net.AddSTE(SingleClass('b'), WithReport(1))
	net.Connect(a, b)
	sim := MustSimulator(net)
	// "ab" reports at cycle 1; a bare "b" never reports.
	if got := sim.Run([]byte("ab")); len(got) != 1 || got[0].Cycle != 1 {
		t.Errorf("got %v, want one report at cycle 1", got)
	}
	if got := sim.Run([]byte("b")); len(got) != 0 {
		t.Errorf("unreachable state reported: %v", got)
	}
}

func TestSelfLoopHoldsActivation(t *testing.T) {
	// Classic "a.*b" style: a, then any symbols, then b.
	net := NewNetwork()
	a := net.AddSTE(SingleClass('a'), WithStart(StartAll))
	hold := net.AddSTE(AllClass())
	b := net.AddSTE(SingleClass('b'), WithReport(2))
	net.Connect(a, hold)
	net.Connect(hold, hold) // self loop
	net.Connect(a, b)
	net.Connect(hold, b)
	sim := MustSimulator(net)
	reports := sim.Run([]byte("axxxb"))
	if len(reports) != 1 || reports[0].Cycle != 4 {
		t.Errorf("got %v, want report at cycle 4", reports)
	}
}

// buildCounterNet: STE 'a' (start-all) drives a counter with the given
// threshold and mode; STE 'r' drives reset; a reporting STE follows the
// counter output.
func buildCounterNet(threshold int, mode CounterMode) (*Network, ElementID) {
	net := NewNetwork()
	a := net.AddSTE(SingleClass('a'), WithStart(StartAll), WithName("inc"))
	r := net.AddSTE(SingleClass('r'), WithStart(StartAll), WithName("rst"))
	c := net.AddCounter(threshold, mode, WithName("ctr"))
	out := net.AddSTE(AllClass(), WithReport(9), WithName("out"))
	net.ConnectCount(a, c)
	net.ConnectReset(r, c)
	net.Connect(c, out)
	return net, c
}

func TestCounterPulseTiming(t *testing.T) {
	net, c := buildCounterNet(3, CounterPulse)
	sim := MustSimulator(net)
	// 'a' at cycles 0,1,2: counter increments at cycles 1,2,3 (one-cycle
	// latency), reaches threshold 3 at cycle 3 and pulses; the reporting STE
	// downstream activates at cycle 4.
	reports := sim.Run([]byte("aaa...."))
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1: %v", len(reports), reports)
	}
	if reports[0].Cycle != 4 {
		t.Errorf("report cycle = %d, want 4", reports[0].Cycle)
	}
	if got := sim.CounterValue(c); got != 3 {
		t.Errorf("final count = %d, want 3", got)
	}
}

func TestCounterPulseOnlyOnce(t *testing.T) {
	net, _ := buildCounterNet(2, CounterPulse)
	sim := MustSimulator(net)
	// Count keeps increasing past the threshold; pulse mode must fire once
	// (Fig. 3 shows the count rising to 8 with a single pulse at threshold).
	reports := sim.Run([]byte("aaaaaa.."))
	if len(reports) != 1 {
		t.Errorf("pulse mode fired %d times, want 1", len(reports))
	}
}

func TestCounterResetPriority(t *testing.T) {
	net, c := buildCounterNet(5, CounterPulse)
	sim := MustSimulator(net)
	// Increment twice, reset, then verify count restarted from zero.
	sim.Run([]byte("aar"))
	_ = c
	sim2 := MustSimulator(net)
	sim2.Reset()
	for _, sym := range []byte("aar.") {
		sim2.Step(sym)
	}
	if got := sim2.CounterValue(c); got != 0 {
		t.Errorf("count after reset = %d, want 0", got)
	}
}

func TestCounterPulseAgainAfterReset(t *testing.T) {
	net, _ := buildCounterNet(2, CounterPulse)
	sim := MustSimulator(net)
	// Two pulses: one before reset, one after.
	reports := sim.Run([]byte("aa.r.aa.."))
	if len(reports) != 2 {
		t.Errorf("got %d reports, want 2: %v", len(reports), reports)
	}
}

func TestCounterLatchHolds(t *testing.T) {
	net, _ := buildCounterNet(2, CounterLatch)
	sim := MustSimulator(net)
	// After threshold, the latched output stays high every cycle until reset,
	// so the downstream reporting STE fires repeatedly.
	reports := sim.Run([]byte("aa....r.."))
	// count reaches 2 at cycle 2 -> latch high cycles 2..7 (reset 'r' at
	// cycle 6 lands at cycle 7); downstream reports cycles 3..8 minus
	// post-reset. Expect >= 4 reports and none after reset settles.
	if len(reports) < 4 {
		t.Fatalf("latch produced %d reports, want >= 4: %v", len(reports), reports)
	}
	last := reports[len(reports)-1]
	if last.Cycle > 7 {
		t.Errorf("latch still reporting at cycle %d after reset", last.Cycle)
	}
}

func TestCounterRollOver(t *testing.T) {
	net, c := buildCounterNet(2, CounterRollOver)
	sim := MustSimulator(net)
	// Every 2 increments -> pulse + self reset: 6 increments = 3 pulses.
	reports := sim.Run([]byte("aaaaaa.."))
	if len(reports) != 3 {
		t.Errorf("roll-over fired %d times, want 3", len(reports))
	}
	if got := sim.CounterValue(c); got != 0 {
		t.Errorf("roll-over final count = %d, want 0", got)
	}
}

func TestExtendedIncrement(t *testing.T) {
	// Two STEs drive the same counter; with the §VII-A extension the counter
	// adds 2 per cycle, without it at most 1.
	build := func() *Network {
		net := NewNetwork()
		a := net.AddSTE(SingleClass('a'), WithStart(StartAll))
		b := net.AddSTE(SingleClass('a'), WithStart(StartAll))
		c := net.AddCounter(4, CounterPulse)
		out := net.AddSTE(AllClass(), WithReport(1))
		net.ConnectCount(a, c)
		net.ConnectCount(b, c)
		net.Connect(c, out)
		return net
	}
	base := MustSimulator(build())
	baseReports := base.Run([]byte("aaaa.."))
	// baseline: 1/cycle -> threshold 4 at cycle 4, report cycle 5
	if len(baseReports) != 1 || baseReports[0].Cycle != 5 {
		t.Errorf("baseline reports = %v, want one at cycle 5", baseReports)
	}
	ext := MustSimulator(build())
	ext.ExtendedIncrement = true
	extReports := ext.Run([]byte("aaaa.."))
	// extended: 2/cycle -> threshold 4 at cycle 2, report cycle 3
	if len(extReports) != 1 || extReports[0].Cycle != 3 {
		t.Errorf("extended reports = %v, want one at cycle 3", extReports)
	}
}

func TestGateAndOr(t *testing.T) {
	net := NewNetwork()
	a := net.AddSTE(SingleClass('a'), WithStart(StartAll))
	b := net.AddSTE(SingleClass('b'), WithStart(StartAll))
	and := net.AddGate(GateAND, WithReport(1))
	or := net.AddGate(GateOR, WithReport(2))
	net.Connect(a, and)
	net.Connect(b, and)
	net.Connect(a, or)
	net.Connect(b, or)
	sim := MustSimulator(net)
	// Symbols hit at most one of 'a'/'b' per cycle so AND never fires.
	reports := sim.Run([]byte("ab"))
	var andCount, orCount int
	for _, r := range reports {
		switch r.ReportID {
		case 1:
			andCount++
		case 2:
			orCount++
		}
	}
	if andCount != 0 {
		t.Errorf("AND fired %d times, want 0", andCount)
	}
	if orCount != 2 {
		t.Errorf("OR fired %d times, want 2", orCount)
	}
}

func TestGateCombinationalSameCycle(t *testing.T) {
	// STE -> gate is same-cycle; gate -> STE adds one cycle. Total a->or->b
	// path behaves like a->b.
	net := NewNetwork()
	a := net.AddSTE(SingleClass('a'), WithStart(StartAll))
	g := net.AddGate(GateOR)
	b := net.AddSTE(SingleClass('b'), WithReport(1))
	net.Connect(a, g)
	net.Connect(g, b)
	sim := MustSimulator(net)
	reports := sim.Run([]byte("ab"))
	if len(reports) != 1 || reports[0].Cycle != 1 {
		t.Errorf("got %v, want report at cycle 1", reports)
	}
}

func TestGateXORandNOT(t *testing.T) {
	net := NewNetwork()
	a := net.AddSTE(SingleClass('a'), WithStart(StartAll))
	b := net.AddSTE(SingleClass('b'), WithStart(StartAll))
	x := net.AddGate(GateXOR, WithReport(1))
	net.Connect(a, x)
	net.Connect(b, x)
	notG := net.AddGate(GateNOT, WithReport(2))
	net.Connect(a, notG)
	sim := MustSimulator(net)
	reports := sim.Run([]byte("a."))
	var xor, not int
	for _, r := range reports {
		switch r.ReportID {
		case 1:
			xor++
		case 2:
			not++
		}
	}
	if xor != 1 {
		t.Errorf("XOR fired %d, want 1 ('a' cycle only)", xor)
	}
	if not != 1 {
		t.Errorf("NOT fired %d, want 1 ('.' cycle only)", not)
	}
}

func TestGateChainTopologicalOrder(t *testing.T) {
	// or1 -> or2 -> or3 all combinational within a cycle.
	net := NewNetwork()
	a := net.AddSTE(SingleClass('a'), WithStart(StartAll))
	g1 := net.AddGate(GateOR)
	g2 := net.AddGate(GateOR)
	g3 := net.AddGate(GateOR, WithReport(1))
	net.Connect(a, g1)
	net.Connect(g1, g2)
	net.Connect(g2, g3)
	sim := MustSimulator(net)
	reports := sim.Run([]byte("a"))
	if len(reports) != 1 || reports[0].Cycle != 0 {
		t.Errorf("gate chain reports = %v, want one at cycle 0", reports)
	}
}

func TestCombinationalLoopRejected(t *testing.T) {
	net := NewNetwork()
	a := net.AddSTE(SingleClass('a'), WithStart(StartAll))
	g1 := net.AddGate(GateOR)
	g2 := net.AddGate(GateOR)
	net.Connect(a, g1)
	net.Connect(g1, g2)
	net.Connect(g2, g1) // loop
	if err := net.Validate(); err == nil {
		t.Error("combinational gate loop not rejected")
	}
}

func TestValidateRejectsBadGateArity(t *testing.T) {
	net := NewNetwork()
	a := net.AddSTE(SingleClass('a'), WithStart(StartAll))
	x := net.AddGate(GateXOR)
	net.Connect(a, x) // XOR needs exactly 2
	if err := net.Validate(); err == nil {
		t.Error("1-input XOR accepted")
	}
}

func TestValidateRejectsCounterWithoutEnable(t *testing.T) {
	net := NewNetwork()
	a := net.AddSTE(SingleClass('a'), WithStart(StartAll))
	c := net.AddCounter(2, CounterPulse)
	net.ConnectReset(a, c) // reset only, no count edge
	if err := net.Validate(); err == nil {
		t.Error("counter without count-enable accepted")
	}
}

func TestConnectPanicsOnCounterDefaultPort(t *testing.T) {
	net := NewNetwork()
	a := net.AddSTE(SingleClass('a'))
	c := net.AddCounter(2, CounterPulse)
	defer func() {
		if recover() == nil {
			t.Error("PortDefault into counter did not panic")
		}
	}()
	net.Connect(a, c)
}

func TestNetworkStats(t *testing.T) {
	net, _ := buildCounterNet(3, CounterPulse)
	s := net.Stats()
	if s.STEs != 3 || s.Counters != 1 || s.Reporting != 1 {
		t.Errorf("stats = %+v", s)
	}
	if c := len(net.Components()); c != 1 {
		t.Errorf("components = %d, want 1", c)
	}
}

func TestComponents(t *testing.T) {
	net := NewNetwork()
	a := net.AddSTE(SingleClass('a'), WithStart(StartAll))
	b := net.AddSTE(SingleClass('b'))
	net.Connect(a, b)
	net.AddSTE(SingleClass('c'), WithStart(StartAll)) // isolated
	comps := net.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(comps[0])+len(comps[1]) != 3 {
		t.Errorf("component sizes %d+%d != 3", len(comps[0]), len(comps[1]))
	}
}

func TestTraceCallback(t *testing.T) {
	net := buildSequenceMatcher("ab")
	sim := MustSimulator(net)
	var cycles []int
	var actives []int
	sim.Trace = func(tc CycleTrace) {
		cycles = append(cycles, tc.Cycle)
		actives = append(actives, len(tc.Active))
	}
	sim.Run([]byte("ab"))
	if len(cycles) != 2 || cycles[0] != 0 || cycles[1] != 1 {
		t.Errorf("trace cycles = %v", cycles)
	}
	if actives[0] != 1 || actives[1] != 1 {
		t.Errorf("trace active counts = %v", actives)
	}
}

func TestResetClearsState(t *testing.T) {
	net, c := buildCounterNet(10, CounterPulse)
	sim := MustSimulator(net)
	sim.Run([]byte("aaaa"))
	if sim.CounterValue(c) == 0 {
		t.Fatal("precondition: counter should be nonzero")
	}
	sim.Reset()
	if sim.CounterValue(c) != 0 {
		t.Error("Reset did not clear counter")
	}
	if sim.Cycle() != 0 {
		t.Error("Reset did not rewind cycle")
	}
}
