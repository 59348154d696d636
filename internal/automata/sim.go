package automata

import "fmt"

// Report is one reporting-element activation: the AP returns the unique
// report ID and the cycle offset within the symbol stream at which the
// element activated (paper §II-B). Cycle offsets are zero-based.
type Report struct {
	ReportID int32
	Cycle    int
}

// CycleTrace is the per-cycle observation delivered to a trace callback:
// everything needed to regenerate the paper's Fig. 3 execution diagrams.
type CycleTrace struct {
	Cycle    int
	Symbol   byte
	Active   []ElementID // elements emitting an activation this cycle
	Counters []CounterTrace
}

// CounterTrace is a counter's state within a CycleTrace.
type CounterTrace struct {
	Element ElementID
	Count   int
}

// Simulator executes a validated Network cycle by cycle against a symbol
// stream with the AP's timing model:
//
//   - An STE activates on cycle t iff its class matches symbol t and it is
//     enabled — it is a start state, or some predecessor emitted on t-1.
//   - A counter samples its ports from activations emitted on t-1: reset has
//     priority; otherwise one or more active count edges increment the count
//     by one (or by the number of active edges when the §VII-A
//     counter-increment extension is enabled).
//   - Boolean elements are combinational over same-cycle outputs and their
//     consumers observe them with the standard one-cycle edge latency.
//
// The zero Simulator is not usable; construct with NewSimulator.
type Simulator struct {
	net *Network

	// ExtendedIncrement enables the §VII-A architectural extension: counters
	// add the number of simultaneously active count edges instead of
	// saturating the per-cycle increment at one.
	ExtendedIncrement bool

	// Trace, when non-nil, receives a CycleTrace after every step. Tracing
	// is O(elements) per cycle; leave nil for performance runs.
	Trace func(CycleTrace)

	cycle     int
	epoch     int32
	candStamp []int32 // STE enabled-candidate marks, by epoch
	emitStamp []int32 // element emitted-this-cycle marks, by epoch
	incrStamp []int32 // counter increment marks, by epoch
	incrCount []int32 // active count edges this cycle (valid when stamped)
	rstStamp  []int32 // counter reset marks, by epoch

	frontier []ElementID // elements that emitted on the previous cycle
	scratch  []ElementID

	counts  []uint32 // counter values (indexed by element ID; 0 for others)
	fired   []bool   // pulse-mode counters that already pulsed since reset
	latched []bool   // latch-mode counters currently holding output
	pulse   []bool   // per-cycle pulse outputs, scratch for phase 3b

	counters  []ElementID // all counter IDs
	startAll  []ElementID // STEs enabled every cycle
	startData []ElementID // STEs enabled on cycle 0 only
	gatePreds [][]ElementID

	reports []Report
}

// NewSimulator validates the network and returns a fresh simulator.
func NewSimulator(net *Network) (*Simulator, error) {
	if !net.validated {
		if err := net.Validate(); err != nil {
			return nil, err
		}
	}
	n := len(net.elems)
	s := &Simulator{
		net:       net,
		candStamp: make([]int32, n),
		emitStamp: make([]int32, n),
		incrStamp: make([]int32, n),
		incrCount: make([]int32, n),
		rstStamp:  make([]int32, n),
		counts:    make([]uint32, n),
		fired:     make([]bool, n),
		latched:   make([]bool, n),
		pulse:     make([]bool, n),
	}
	s.gatePreds = make([][]ElementID, n)
	for i := range net.elems {
		e := &net.elems[i]
		switch e.kind {
		case KindCounter:
			s.counters = append(s.counters, ElementID(i))
		case KindSTE:
			switch e.start {
			case StartAll:
				s.startAll = append(s.startAll, ElementID(i))
			case StartOfData:
				s.startData = append(s.startData, ElementID(i))
			}
		}
		for _, edge := range e.succ {
			if net.elems[edge.to].kind == KindGate && edge.port == PortDefault {
				s.gatePreds[edge.to] = append(s.gatePreds[edge.to], ElementID(i))
			}
		}
	}
	s.Reset()
	return s, nil
}

// MustSimulator is NewSimulator that panics on error, for generated networks
// that are valid by construction.
func MustSimulator(net *Network) *Simulator {
	s, err := NewSimulator(net)
	if err != nil {
		panic(err)
	}
	return s
}

// Reset returns the simulator to the pre-stream state: no activations, all
// counters zero, cycle counter rewound.
func (s *Simulator) Reset() {
	s.cycle = 0
	s.epoch++
	s.frontier = s.frontier[:0]
	for i := range s.counts {
		s.counts[i] = 0
		s.fired[i] = false
		s.latched[i] = false
	}
	s.reports = s.reports[:0]
}

// Cycle returns the number of symbols consumed since the last Reset.
func (s *Simulator) Cycle() int { return s.cycle }

// CounterValue returns the current count of counter id, for tests and traces.
func (s *Simulator) CounterValue(id ElementID) int {
	if s.net.elems[id].kind != KindCounter {
		panic(fmt.Sprintf("automata: element %d is not a counter", id))
	}
	return int(s.counts[id])
}

// Step consumes one symbol and returns the reports emitted on this cycle.
// The returned slice aliases internal storage valid until the next Step.
func (s *Simulator) Step(sym byte) []Report {
	net := s.net
	s.epoch++
	epoch := s.epoch
	reportStart := len(s.reports)

	// Phase 1: propagate last cycle's activations to this cycle's inputs.
	for _, id := range s.frontier {
		for _, e := range net.elems[id].succ {
			switch e.port {
			case PortDefault:
				if net.elems[e.to].kind == KindSTE {
					s.candStamp[e.to] = epoch
				}
				// Gate inputs are combinational and read in phase 4.
			case PortCount:
				if s.incrStamp[e.to] != epoch {
					s.incrStamp[e.to] = epoch
					s.incrCount[e.to] = 0
				}
				s.incrCount[e.to]++
			case PortReset:
				s.rstStamp[e.to] = epoch
			}
		}
	}

	// Phase 2: STE activations.
	next := s.scratch[:0]
	activate := func(id ElementID) {
		if s.emitStamp[id] == epoch {
			return
		}
		s.emitStamp[id] = epoch
		next = append(next, id)
		if e := &net.elems[id]; e.reporting {
			s.reports = append(s.reports, Report{ReportID: e.reportID, Cycle: s.cycle})
		}
	}
	for _, id := range s.startAll {
		s.candStamp[id] = epoch
	}
	if s.cycle == 0 {
		for _, id := range s.startData {
			s.candStamp[id] = epoch
		}
	}
	// Enabled STEs were stamped either by frontier propagation or as start
	// states; scan the frontier successors again is unnecessary — instead we
	// collect stamped STEs while stamping. To keep phase 1 branch-free we
	// re-derive them here from the stamp array only for start states and
	// frontier successors.
	for _, id := range s.frontier {
		for _, e := range net.elems[id].succ {
			if e.port == PortDefault && net.elems[e.to].kind == KindSTE &&
				s.candStamp[e.to] == epoch && net.elems[e.to].class.Match(sym) {
				activate(e.to)
			}
		}
	}
	for _, id := range s.startAll {
		if net.elems[id].class.Match(sym) {
			activate(id)
		}
	}
	if s.cycle == 0 {
		for _, id := range s.startData {
			if net.elems[id].class.Match(sym) {
				activate(id)
			}
		}
	}

	// Phase 3a: update counter state. Outputs are computed afterwards so
	// dynamically thresholded counters (§VII-B) compare same-cycle counts
	// regardless of element order.
	for _, id := range s.counters {
		e := &net.elems[id]
		s.pulse[id] = false
		switch {
		case s.rstStamp[id] == epoch:
			s.counts[id] = 0
			s.fired[id] = false
			s.latched[id] = false
		case s.incrStamp[id] == epoch:
			incr := int32(1)
			if s.ExtendedIncrement {
				incr = s.incrCount[id]
			}
			old := s.counts[id]
			s.counts[id] += uint32(incr)
			crossed := old < e.threshold && s.counts[id] >= e.threshold
			switch e.mode {
			case CounterPulse:
				if crossed && !s.fired[id] {
					s.fired[id] = true
					s.pulse[id] = true
				}
			case CounterLatch:
				if crossed {
					s.latched[id] = true
				}
			case CounterRollOver:
				if crossed {
					s.pulse[id] = true
					s.counts[id] = 0
				}
			}
		}
	}
	// Phase 3b: counter outputs.
	for _, id := range s.counters {
		e := &net.elems[id]
		out := s.pulse[id] || s.latched[id]
		if e.dynSrc >= 0 {
			out = s.counts[id] > s.counts[e.dynSrc]
		}
		if out {
			activate(id)
		}
	}

	// Phase 4: boolean elements, in topological order over same-cycle inputs.
	for _, id := range net.gateOrder {
		e := &net.elems[id]
		preds := s.gatePreds[id]
		var out bool
		switch e.op {
		case GateOR, GateNOR:
			out = false
			for _, p := range preds {
				if s.emitStamp[p] == epoch {
					out = true
					break
				}
			}
			if e.op == GateNOR {
				out = !out
			}
		case GateAND, GateNAND:
			out = true
			for _, p := range preds {
				if s.emitStamp[p] != epoch {
					out = false
					break
				}
			}
			if e.op == GateNAND {
				out = !out
			}
		case GateNOT:
			out = s.emitStamp[preds[0]] != epoch
		case GateXOR, GateXNOR:
			a := s.emitStamp[preds[0]] == epoch
			b := s.emitStamp[preds[1]] == epoch
			out = a != b
			if e.op == GateXNOR {
				out = !out
			}
		}
		if out {
			activate(id)
		}
	}

	if s.Trace != nil {
		s.emitTrace(sym, next)
	}

	// Swap frontiers.
	s.scratch = s.frontier[:0]
	s.frontier = next
	s.cycle++
	return s.reports[reportStart:]
}

func (s *Simulator) emitTrace(sym byte, active []ElementID) {
	tc := CycleTrace{Cycle: s.cycle, Symbol: sym, Active: append([]ElementID(nil), active...)}
	for _, id := range s.counters {
		tc.Counters = append(tc.Counters, CounterTrace{
			Element: id,
			Count:   int(s.counts[id]),
		})
	}
	s.Trace(tc)
}

// Run resets the simulator, consumes the whole stream, and returns all
// reports. The returned slice is owned by the caller.
func (s *Simulator) Run(stream []byte) []Report {
	s.Reset()
	for _, sym := range stream {
		s.Step(sym)
	}
	out := make([]Report, len(s.reports))
	copy(out, s.reports)
	return out
}
