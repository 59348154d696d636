package core

import (
	"fmt"

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
	// Collectors lists the reduction-tree states level by level, root last.
	Collectors []automata.ElementID
	Delays     []automata.ElementID
	Sort       automata.ElementID
	EOF        automata.ElementID
	Counter    automata.ElementID
	Report     automata.ElementID
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
	d := l.Dim
	m := &Macro{}
	name := func(s string, i int) string { return fmt.Sprintf("v%d.%s%d", reportID, s, i) }

	m.Guard = net.AddSTE(classGuard,
		automata.WithStart(automata.StartAll), automata.WithName(fmt.Sprintf("v%d.guard", reportID)))

	// Compute chain: star states advance the position, match states fire when
	// the query bit equals the encoded bit.
	prev := m.Guard
	for i := 0; i < d; i++ {
		match := net.AddSTE(bitClass(v.Bit(i)), automata.WithName(name("x", i)))
		net.Connect(prev, match)
		m.Matches = append(m.Matches, match)
		star := net.AddSTE(automata.AllClass(), automata.WithName(name("s", i)))
		net.Connect(prev, star)
		m.Stars = append(m.Stars, star)
		prev = star
	}

	// Collector reduction tree (§III-A), balanced so every match state is the
	// same number of hops from the counter.
	m.Counter = net.AddCounter(d, automata.CounterPulse, automata.WithName(fmt.Sprintf("v%d.ihd", reportID)))
	level := m.Matches
	depth := l.CollectorDepth()
	fanIn := l.CollectorFanIn
	if l.PaperExact {
		fanIn = d // single collector regardless of width
	}
	for lvl := 0; lvl < depth; lvl++ {
		var nextLevel []automata.ElementID
		for lo := 0; lo < len(level); lo += fanIn {
			hi := lo + fanIn
			if hi > len(level) {
				hi = len(level)
			}
			col := net.AddSTE(automata.AllClass(), automata.WithName(name("col", len(m.Collectors))))
			for _, src := range level[lo:hi] {
				net.Connect(src, col)
			}
			m.Collectors = append(m.Collectors, col)
			nextLevel = append(nextLevel, col)
		}
		level = nextLevel
	}
	// With a correct depth the tree reduced to a single root; connect it to
	// the counter's increment port.
	if len(level) != 1 {
		panic(fmt.Sprintf("core: collector tree reduced to %d roots, want 1 (d=%d fanIn=%d depth=%d)",
			len(level), d, fanIn, depth))
	}
	net.ConnectCount(level[0], m.Counter)

	// Sorting macro (Fig. 2b): optional delay slack, then the self-looping
	// sort state that uniformly increments the counter until EOF.
	prevSort := m.Stars[d-1]
	for j := 0; j < l.delaySlack(); j++ {
		dly := net.AddSTE(automata.AllClass(), automata.WithName(name("dly", j)))
		net.Connect(prevSort, dly)
		m.Delays = append(m.Delays, dly)
		prevSort = dly
	}
	m.Sort = net.AddSTE(classPad, automata.WithName(fmt.Sprintf("v%d.sort", reportID)))
	net.Connect(prevSort, m.Sort)
	net.Connect(m.Sort, m.Sort) // self loop: active until EOF arrives
	net.ConnectCount(m.Sort, m.Counter)

	m.EOF = net.AddSTE(classEOF, automata.WithName(fmt.Sprintf("v%d.eof", reportID)))
	net.Connect(m.Sort, m.EOF)
	net.ConnectReset(m.EOF, m.Counter)

	m.Report = net.AddSTE(automata.AllClass(),
		automata.WithReport(reportID), automata.WithName(fmt.Sprintf("v%d.rep", reportID)))
	net.Connect(m.Counter, m.Report)
	return m
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
	d := l.Dim
	collectors := 0
	level := d
	fanIn := l.CollectorFanIn
	if l.PaperExact {
		fanIn = d
	}
	for lvl := 0; lvl < l.CollectorDepth(); lvl++ {
		level = (level + fanIn - 1) / fanIn
		collectors += level
	}
	// guard + d stars + d matches + collectors + delays + sort + eof + report
	return 1 + 2*d + collectors + l.delaySlack() + 3
}
