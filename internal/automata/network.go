package automata

import (
	"fmt"
)

// ElementID identifies an element within a Network.
type ElementID int32

// Kind discriminates the AP element types.
type Kind uint8

// Element kinds, mirroring the AP fabric (paper §II-B): STEs implement NFA
// states, counters implement threshold events, gates implement two-input
// boolean logic.
const (
	KindSTE Kind = iota
	KindCounter
	KindGate
)

func (k Kind) String() string {
	switch k {
	case KindSTE:
		return "ste"
	case KindCounter:
		return "counter"
	case KindGate:
		return "gate"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// StartKind describes how an STE can self-activate (paper §II-B: "start
// states do not need an upstream state to be active").
type StartKind uint8

const (
	// StartNone: the STE activates only when a predecessor was active.
	StartNone StartKind = iota
	// StartOfData: the STE is enabled only on the first symbol of a stream.
	StartOfData
	// StartAll: the STE is enabled on every symbol.
	StartAll
)

func (s StartKind) String() string {
	switch s {
	case StartNone:
		return "none"
	case StartOfData:
		return "start-of-data"
	case StartAll:
		return "all-input"
	default:
		return fmt.Sprintf("start(%d)", uint8(s))
	}
}

// CounterMode selects the counter's output behaviour at threshold.
type CounterMode uint8

const (
	// CounterPulse emits a single-cycle activation when the count reaches
	// the threshold (the mode the temporal sort uses, §III-B).
	CounterPulse CounterMode = iota
	// CounterLatch holds the output active from threshold until reset.
	CounterLatch
	// CounterRollOver pulses at threshold and immediately resets to zero.
	CounterRollOver
)

func (m CounterMode) String() string {
	switch m {
	case CounterPulse:
		return "pulse"
	case CounterLatch:
		return "latch"
	case CounterRollOver:
		return "roll-over"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// GateOp is the boolean element's function. The AP's boolean elements can be
// programmed as any standard two-input gate (§II-B); OR and AND additionally
// accept wider fan-in here because the hardware routing matrix implements
// wired-OR into a gate input.
type GateOp uint8

const (
	GateOR GateOp = iota
	GateAND
	GateNOT // single input
	GateNAND
	GateNOR
	GateXOR
	GateXNOR
)

func (op GateOp) String() string {
	switch op {
	case GateOR:
		return "or"
	case GateAND:
		return "and"
	case GateNOT:
		return "not"
	case GateNAND:
		return "nand"
	case GateNOR:
		return "nor"
	case GateXOR:
		return "xor"
	case GateXNOR:
		return "xnor"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Port selects which input of a counter an edge drives.
type Port uint8

const (
	// PortDefault drives an STE's or gate's activation input.
	PortDefault Port = iota
	// PortCount drives a counter's increment-by-one port.
	PortCount
	// PortReset drives a counter's reset port.
	PortReset
)

// element is the internal representation of one AP element.
type element struct {
	kind      Kind
	name      string
	class     SymbolClass // STE only
	start     StartKind   // STE only
	threshold uint32      // counter only
	mode      CounterMode // counter only
	dynSrc    ElementID   // counter only: dynamic threshold source, -1 if none
	op        GateOp      // gate only
	reporting bool
	reportID  int32

	// successor edges, fan-out of this element's activation signal
	succ []edge
	// predecessor counts per port, for validation and fan-in analysis
	predDefault int
	predCount   int
	predReset   int
}

type edge struct {
	to   ElementID
	port Port
}

// Network is a mutable automata network: the ANML-level design that is
// compiled onto the AP and executed by the Simulator.
type Network struct {
	elems []element
	// gateOrder is the topological evaluation order of gates, computed by
	// Validate; gates are combinational so they must be loop-free.
	gateOrder []ElementID
	validated bool
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{}
}

// STEOpt mutates an STE under construction.
type STEOpt func(*element)

// WithStart marks the STE with a start kind.
func WithStart(s StartKind) STEOpt {
	return func(e *element) { e.start = s }
}

// WithReport marks the element as reporting with the given report ID, the
// value returned to the host when the element activates (§II-B).
func WithReport(id int32) STEOpt {
	return func(e *element) { e.reporting = true; e.reportID = id }
}

// WithName attaches a debug/trace name.
func WithName(name string) STEOpt {
	return func(e *element) { e.name = name }
}

// AddSTE adds a state transition element matching class.
func (n *Network) AddSTE(class SymbolClass, opts ...STEOpt) ElementID {
	e := element{kind: KindSTE, class: class, dynSrc: -1, reportID: -1}
	for _, o := range opts {
		o(&e)
	}
	return n.add(e)
}

// AddCounter adds a threshold counter. Threshold must be positive.
func (n *Network) AddCounter(threshold int, mode CounterMode, opts ...STEOpt) ElementID {
	if threshold <= 0 {
		panic(fmt.Sprintf("automata: counter threshold must be positive, got %d", threshold))
	}
	e := element{kind: KindCounter, threshold: uint32(threshold), mode: mode, dynSrc: -1, reportID: -1}
	for _, o := range opts {
		o(&e)
	}
	return n.add(e)
}

// AddDynamicCounter adds a counter implementing the §VII-B architectural
// extension: instead of a static threshold, its output is active on every
// cycle in which its count strictly exceeds the current count of the src
// counter — the "if (A > B)" comparison construct of Fig. 8. Base AP
// hardware has no such element; it exists to evaluate the proposed
// extension.
func (n *Network) AddDynamicCounter(src ElementID, opts ...STEOpt) ElementID {
	n.checkID(src)
	if n.elems[src].kind != KindCounter {
		panic(fmt.Sprintf("automata: dynamic threshold source %d is not a counter", src))
	}
	e := element{kind: KindCounter, threshold: 1, mode: CounterPulse, dynSrc: src, reportID: -1}
	for _, o := range opts {
		o(&e)
	}
	return n.add(e)
}

// DynamicSrcOf returns the dynamic-threshold source of counter id, or
// (-1, false) for statically thresholded counters.
func (n *Network) DynamicSrcOf(id ElementID) (ElementID, bool) {
	n.checkID(id)
	src := n.elems[id].dynSrc
	return src, src >= 0
}

// AddGate adds a boolean element computing op over its inputs.
func (n *Network) AddGate(op GateOp, opts ...STEOpt) ElementID {
	e := element{kind: KindGate, op: op, dynSrc: -1, reportID: -1}
	for _, o := range opts {
		o(&e)
	}
	return n.add(e)
}

func (n *Network) add(e element) ElementID {
	n.elems = append(n.elems, e)
	n.validated = false
	return ElementID(len(n.elems) - 1)
}

// Connect wires from's activation output to to's default input. For counter
// destinations use ConnectPort.
func (n *Network) Connect(from, to ElementID) {
	n.ConnectPort(from, to, PortDefault)
}

// ConnectCount wires from to counter to's increment port.
func (n *Network) ConnectCount(from, to ElementID) {
	n.ConnectPort(from, to, PortCount)
}

// ConnectReset wires from to counter to's reset port.
func (n *Network) ConnectReset(from, to ElementID) {
	n.ConnectPort(from, to, PortReset)
}

// ConnectPort wires from's output to the given port of to.
func (n *Network) ConnectPort(from, to ElementID, port Port) {
	n.checkID(from)
	n.checkID(to)
	dst := &n.elems[to]
	switch port {
	case PortDefault:
		if dst.kind == KindCounter {
			panic("automata: counters take PortCount or PortReset edges, not PortDefault")
		}
		dst.predDefault++
	case PortCount:
		if dst.kind != KindCounter {
			panic("automata: PortCount edge into non-counter element")
		}
		dst.predCount++
	case PortReset:
		if dst.kind != KindCounter {
			panic("automata: PortReset edge into non-counter element")
		}
		dst.predReset++
	}
	n.elems[from].succ = append(n.elems[from].succ, edge{to: to, port: port})
	n.validated = false
}

func (n *Network) checkID(id ElementID) {
	if id < 0 || int(id) >= len(n.elems) {
		panic(fmt.Sprintf("automata: element id %d out of range [0,%d)", id, len(n.elems)))
	}
}

// Len returns the number of elements.
func (n *Network) Len() int { return len(n.elems) }

// KindOf returns the kind of element id.
func (n *Network) KindOf(id ElementID) Kind { n.checkID(id); return n.elems[id].kind }

// NameOf returns the debug name of element id (may be empty).
func (n *Network) NameOf(id ElementID) string { n.checkID(id); return n.elems[id].name }

// ClassOf returns the symbol class of STE id.
func (n *Network) ClassOf(id ElementID) SymbolClass { n.checkID(id); return n.elems[id].class }

// StartOf returns the start kind of STE id.
func (n *Network) StartOf(id ElementID) StartKind { n.checkID(id); return n.elems[id].start }

// ThresholdOf returns the threshold of counter id.
func (n *Network) ThresholdOf(id ElementID) int { n.checkID(id); return int(n.elems[id].threshold) }

// ModeOf returns the mode of counter id.
func (n *Network) ModeOf(id ElementID) CounterMode { n.checkID(id); return n.elems[id].mode }

// OpOf returns the op of gate id.
func (n *Network) OpOf(id ElementID) GateOp { n.checkID(id); return n.elems[id].op }

// IsReporting reports whether element id reports, and its report ID.
func (n *Network) IsReporting(id ElementID) (bool, int32) {
	n.checkID(id)
	return n.elems[id].reporting, n.elems[id].reportID
}

// Edge describes one activation wire for external tooling (ANML export,
// placement).
type Edge struct {
	To   ElementID
	Port Port
}

// Edges returns the outgoing edges of element id with their destination
// ports. The slice is freshly allocated.
func (n *Network) Edges(id ElementID) []Edge {
	n.checkID(id)
	out := make([]Edge, 0, len(n.elems[id].succ))
	for _, e := range n.elems[id].succ {
		out = append(out, Edge{To: e.to, Port: e.port})
	}
	return out
}

// FanIn returns the number of default-port predecessors of element id, the
// quantity the AP routing matrix constrains (§VI-A's routing pressure).
func (n *Network) FanIn(id ElementID) int {
	n.checkID(id)
	return n.elems[id].predDefault
}

// Stats summarizes the resource content of the network.
type Stats struct {
	STEs      int
	Counters  int
	Gates     int
	Reporting int
	Edges     int
	StartSTEs int
	MaxFanIn  int
	MaxFanOut int
}

// Stats computes resource statistics used by the AP placer.
func (n *Network) Stats() Stats {
	var s Stats
	for i := range n.elems {
		e := &n.elems[i]
		switch e.kind {
		case KindSTE:
			s.STEs++
			if e.start != StartNone {
				s.StartSTEs++
			}
		case KindCounter:
			s.Counters++
		case KindGate:
			s.Gates++
		}
		if e.reporting {
			s.Reporting++
		}
		s.Edges += len(e.succ)
		fanIn := e.predDefault + e.predCount + e.predReset
		if fanIn > s.MaxFanIn {
			s.MaxFanIn = fanIn
		}
		if len(e.succ) > s.MaxFanOut {
			s.MaxFanOut = len(e.succ)
		}
	}
	return s
}

// Components returns the weakly connected components of the network, each a
// sorted list of element IDs. The AP placer maps one component per NFA: an
// NFA cannot span AP half-cores (§II-B), so components are the placement
// granule.
func (n *Network) Components() [][]ElementID {
	parent := make([]int32, len(n.elems))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := range n.elems {
		for _, e := range n.elems[i].succ {
			union(int32(i), int32(e.to))
		}
	}
	groups := make(map[int32][]ElementID)
	for i := range n.elems {
		r := find(int32(i))
		groups[r] = append(groups[r], ElementID(i))
	}
	out := make([][]ElementID, 0, len(groups))
	for i := range n.elems {
		if find(int32(i)) == int32(i) {
			out = append(out, groups[int32(i)])
		}
	}
	return out
}

// Validate checks structural invariants and prepares the gate evaluation
// order. It must be called (directly or via NewSimulator) before simulation.
func (n *Network) Validate() error {
	n.gateOrder = n.gateOrder[:0]
	// Gate arity checks.
	for i := range n.elems {
		e := &n.elems[i]
		if e.kind != KindGate {
			continue
		}
		switch e.op {
		case GateNOT:
			if e.predDefault != 1 {
				return fmt.Errorf("automata: NOT gate %d has %d inputs, want 1", i, e.predDefault)
			}
		case GateXOR, GateXNOR:
			if e.predDefault != 2 {
				return fmt.Errorf("automata: %v gate %d has %d inputs, want 2", e.op, i, e.predDefault)
			}
		default:
			if e.predDefault < 1 {
				return fmt.Errorf("automata: %v gate %d has no inputs", e.op, i)
			}
		}
	}
	// Gates are combinational: find a topological order over gate-to-gate
	// edges, rejecting combinational loops.
	gateIn := make(map[ElementID]int)
	gateSucc := make(map[ElementID][]ElementID)
	for i := range n.elems {
		if n.elems[i].kind == KindGate {
			gateIn[ElementID(i)] = 0
		}
	}
	for i := range n.elems {
		if n.elems[i].kind != KindGate {
			continue
		}
		for _, e := range n.elems[i].succ {
			if n.elems[e.to].kind == KindGate {
				gateSucc[ElementID(i)] = append(gateSucc[ElementID(i)], e.to)
				gateIn[e.to]++
			}
		}
	}
	var queue []ElementID
	for i := range n.elems {
		id := ElementID(i)
		if n.elems[i].kind == KindGate && gateIn[id] == 0 {
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n.gateOrder = append(n.gateOrder, id)
		for _, s := range gateSucc[id] {
			gateIn[s]--
			if gateIn[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(n.gateOrder) != len(gateIn) {
		return fmt.Errorf("automata: combinational loop among boolean elements (%d of %d ordered)",
			len(n.gateOrder), len(gateIn))
	}
	// Counters must have at least one count edge to be meaningful.
	for i := range n.elems {
		e := &n.elems[i]
		if e.kind == KindCounter && e.predCount == 0 {
			return fmt.Errorf("automata: counter %d has no count-enable input", i)
		}
	}
	n.validated = true
	return nil
}
