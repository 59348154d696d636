package core

import (
	"fmt"
	"strconv"

	"repro/internal/automata"
	"repro/internal/bitvec"
)

// Symbol classes of the plain kNN design. Every class is a one-bit ternary
// match on the dedicated bit of its special symbol, so the compute states
// observe exactly one bit of the stream — the property §VII-C's STE
// decomposition analysis measures. Enabledness (chain position) protects
// the match states from the special symbols that share their bit-0 value.
var (
	classGuard = mustTernary("1*******") // SOF (bit 7)
	classPad   = mustTernary("**0*****") // ^EOF: anything but EOF (bit 5 clear)
	classEOF   = mustTernary("**1*****") // EOF (bit 5 set)
	classBit0  = mustTernary("*******0") // data symbol with query bit 0
	classBit1  = mustTernary("*******1") // data symbol with query bit 1
)

func mustTernary(p string) automata.SymbolClass {
	c, err := automata.TernaryClass(p)
	if err != nil {
		panic(err)
	}
	return c
}

// bitClass returns the match class for a dataset bit value.
func bitClass(b bool) automata.SymbolClass {
	if b {
		return classBit1
	}
	return classBit0
}

// Macro holds the element handles of one Hamming + sorting macro (Fig. 2),
// used by traces, tests and the optimization generators.
type Macro struct {
	Guard   automata.ElementID
	Stars   []automata.ElementID
	Matches []automata.ElementID
	Delays  []automata.ElementID
	Sort    automata.ElementID
	EOF     automata.ElementID
	Counter automata.ElementID
	Report  automata.ElementID
}

// names spells a macro's element names: its prefix, the part, then the
// part's index, or single for a part the macro has one of.
type names struct{ prefix, single string }

func (n names) at(part string, i int) string { return n.prefix + part + strconv.Itoa(i) }

func (n names) one(part string) string { return n.prefix + part + n.single }

// skeleton is one Fig. 2 macro under construction: the guard
// (newSkeleton), the star/match chain (match, star) and the sorting tail
// (sortTail), recorded in the embedded Macro as its builder adds them. The
// builder adds its own counter and collector tree (Layout.collect) and
// picks the symbol classes and names; the order of its calls fixes the
// element IDs.
type skeleton struct {
	Macro
	names
	net  *automata.Network
	prev automata.ElementID // the chain's last state
}

// newSkeleton starts a macro with its guard: the all-input start state
// whose class matches SOF and so opens each query window.
func newSkeleton(net *automata.Network, guard automata.SymbolClass, n names) *skeleton {
	m := &skeleton{names: n, net: net}
	m.Guard = net.AddSTE(guard, automata.WithStart(automata.StartAll), automata.WithName(n.one("guard")))
	m.prev = m.Guard
	return m
}

// match adds dimension i's match state, entered from the chain's last
// state, which fires when the data symbol is in class.
func (m *skeleton) match(class automata.SymbolClass, i int) automata.ElementID {
	id := m.net.AddSTE(class, automata.WithName(m.at("x", i)))
	m.net.Connect(m.prev, id)
	m.Matches = append(m.Matches, id)
	return id
}

// star advances the chain by one data symbol.
func (m *skeleton) star(part string, i int) {
	id := m.net.AddSTE(automata.AllClass(), automata.WithName(m.at(part, i)))
	m.net.Connect(m.prev, id)
	m.Stars = append(m.Stars, id)
	m.prev = id
}

// sortTail ends the macro with the sorting macro (Fig. 2b): delays delay
// states after the chain, the self-looping sort state (class pad) that
// increments the counter every cycle until EOF arrives, the EOF state that
// resets the counter, and the state that reports with reportID when the
// counter reaches its threshold.
func (m *skeleton) sortTail(delays int, pad, eof automata.SymbolClass, reportID int32) {
	net := m.net
	m.Delays = delayChain(net, []automata.ElementID{m.prev}, delays, m.names)
	if len(m.Delays) > 0 {
		m.prev = m.Delays[len(m.Delays)-1]
	}
	m.Sort = net.AddSTE(pad, automata.WithName(m.one("sort")))
	net.Connect(m.prev, m.Sort)
	net.Connect(m.Sort, m.Sort) // self loop: active until EOF arrives
	net.ConnectCount(m.Sort, m.Counter)
	m.EOF = net.AddSTE(eof, automata.WithName(m.one("eof")))
	net.Connect(m.Sort, m.EOF)
	net.ConnectReset(m.EOF, m.Counter)
	m.Report = net.AddSTE(automata.AllClass(), automata.WithReport(reportID), automata.WithName(m.one("rep")))
	net.Connect(m.Counter, m.Report)
}

// delayChain appends count delay states, the slack between a compute
// chain's end and its sort state: every state of from enters the first,
// and each delay the next. It returns the delays in order.
func delayChain(net *automata.Network, from []automata.ElementID, count int, n names) []automata.ElementID {
	var delays []automata.ElementID
	for j := 0; j < count; j++ {
		dly := net.AddSTE(automata.AllClass(), automata.WithName(n.at("dly", j)))
		for _, p := range from {
			net.Connect(p, dly)
		}
		delays = append(delays, dly)
		from = []automata.ElementID{dly}
	}
	return delays
}

// collectorTree walks the shape of the §III-A collector reduction tree
// over leaves states, balanced so every leaf is the same number of hops
// from the counter: CollectorDepth levels, each collector gathering up to
// the layout's fan-in states of the level below, except that PaperExact's
// single collector gathers all d. Numbering the leaves 0..leaves-1 and the
// collectors after them in the order visited, visit(lvl, i, lo, hi) is the
// i-th collector of level lvl, which gathers states lo..hi-1. It returns
// the number of collectors.
func (l Layout) collectorTree(leaves int, visit func(lvl, i, lo, hi int)) int {
	fanIn := l.CollectorFanIn
	if l.PaperExact {
		fanIn = l.Dim
	}
	below, n, total := 0, leaves, 0 // the level below is states below..below+n-1
	for lvl := 0; lvl < l.CollectorDepth(); lvl++ {
		next := (n + fanIn - 1) / fanIn
		for i := 0; i < next; i++ {
			visit(lvl, i, below+i*fanIn, below+min((i+1)*fanIn, n))
		}
		below, n, total = below+n, next, total+next
	}
	// With a correct depth the tree reduces to a single root.
	if n != 1 {
		panic(fmt.Sprintf("core: collector tree reduced to %d roots, want 1 (d=%d fanIn=%d depth=%d)",
			n, l.Dim, fanIn, l.CollectorDepth()))
	}
	return total
}

// collect builds the collector tree over leaves into net and connects its
// root to counter's increment port. name(lvl, i, n) names the i-th
// collector of level lvl, the tree's n-th.
func (l Layout) collect(net *automata.Network, leaves []automata.ElementID, counter automata.ElementID, name func(lvl, i, n int) string) {
	states := append([]automata.ElementID(nil), leaves...)
	l.collectorTree(len(leaves), func(lvl, i, lo, hi int) {
		col := net.AddSTE(automata.AllClass(), automata.WithName(name(lvl, i, len(states)-len(leaves))))
		for _, src := range states[lo:hi] {
			net.Connect(src, col)
		}
		states = append(states, col)
	})
	net.ConnectCount(states[len(states)-1], counter)
}

// BuildMacro appends one Hamming + sorting macro encoding v to net, with the
// given report ID, following the layout. The macro structure is the paper's
// Fig. 2: guard -> star/match chain -> collector tree -> inverted Hamming
// distance counter -> reporting state, plus the sort and EOF states.
func BuildMacro(net *automata.Network, v bitvec.Vector, l Layout, reportID int32) *Macro {
	if err := l.Validate(); err != nil {
		panic(err)
	}
	if v.Dim() != l.Dim {
		panic(fmt.Sprintf("core: vector dim %d != layout dim %d", v.Dim(), l.Dim))
	}
	m := newSkeleton(net, classGuard, names{prefix: fmt.Sprintf("v%d.", reportID)})
	// Compute chain: star states advance the position, match states fire when
	// the query bit equals the encoded bit.
	for i := 0; i < l.Dim; i++ {
		m.match(bitClass(v.Bit(i)), i)
		m.star("s", i)
	}
	m.Counter = net.AddCounter(l.Dim, automata.CounterPulse, automata.WithName(m.one("ihd")))
	l.collect(net, m.Matches, m.Counter, func(_, _, n int) string { return m.at("col", n) })
	m.sortTail(l.delaySlack(), classPad, classEOF, reportID)
	return &m.Macro
}

// delaySlack returns the effective delay-state count for the layout.
func (l Layout) delaySlack() int {
	if l.PaperExact {
		return 0
	}
	return l.DelaySlack
}

// BuildLinear builds one macro per dataset vector with report IDs equal to
// the vector indices, the linear-search automata of §III. It returns the
// macros in dataset order.
func BuildLinear(net *automata.Network, ds *bitvec.Dataset, l Layout) []*Macro {
	macros := make([]*Macro, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		macros[i] = BuildMacro(net, ds.At(i), l, int32(i))
	}
	return macros
}

// MacroSTECost returns the number of STEs one plain macro consumes for the
// layout — the analytical-model unit cost ("1 NFA state ~ 1 STE resource",
// §VII-D).
func MacroSTECost(l Layout) int {
	collectors := l.collectorTree(l.Dim, func(_, _, _, _ int) {})
	// guard + d stars + d matches + collectors + delays + sort + eof + report
	return 1 + 2*l.Dim + collectors + l.delaySlack() + 3
}
