package core

import (
	"fmt"
	"strconv"

	"repro/internal/automata"
	"repro/internal/bitvec"
)

// PackedGroup is the §VI-A vector-packing design (Fig. 5): several Hamming
// macros overlaid on one shared "vector ladder". The ladder carries, per
// dimension, one state for query bit 0 and one for query bit 1; each packed
// vector taps the ladder states matching its encoded bits through its own
// collector tree, counter and reporting state. The guard, delay chain, sort
// state and EOF state are also shared.
type PackedGroup struct {
	Guard automata.ElementID
	// Ladder[i] holds the bit-0 and bit-1 states of dimension i.
	Ladder    [][2]automata.ElementID
	Delays    []automata.ElementID
	Sort      automata.ElementID
	EOF       automata.ElementID
	VectorIDs []int32
	Counters  []automata.ElementID
	Reports   []automata.ElementID
}

// BuildPacked appends one packed group encoding all vectors of ds to net,
// with report IDs baseID, baseID+1, ... in dataset order. The timing is
// identical to the plain macro's, so streams and decoding are unchanged.
func BuildPacked(net *automata.Network, ds *bitvec.Dataset, l Layout, baseID int32) *PackedGroup {
	if err := l.Validate(); err != nil {
		panic(err)
	}
	if ds.Dim() != l.Dim {
		panic(fmt.Sprintf("core: dataset dim %d != layout dim %d", ds.Dim(), l.Dim))
	}
	if ds.Len() == 0 {
		panic("core: BuildPacked on empty dataset")
	}
	d := l.Dim
	g := &PackedGroup{}
	pack := names{prefix: "pack."}
	g.Guard = net.AddSTE(classGuard,
		automata.WithStart(automata.StartAll), automata.WithName(pack.one("guard")))

	// Shared ladder: exactly one state per rung fires each data cycle — the
	// one matching the query bit — so every packed vector observes the query
	// through the same 2d states.
	prev := []automata.ElementID{g.Guard}
	for i := 0; i < d; i++ {
		zero := net.AddSTE(classBit0, automata.WithName(pack.at("l", i)+"_0"))
		one := net.AddSTE(classBit1, automata.WithName(pack.at("l", i)+"_1"))
		for _, p := range prev {
			net.Connect(p, zero)
			net.Connect(p, one)
		}
		g.Ladder = append(g.Ladder, [2]automata.ElementID{zero, one})
		prev = []automata.ElementID{zero, one}
	}

	// Shared sorting tail. Unlike a macro's, its sort and EOF states feed
	// the per-vector counters as those are added below.
	g.Delays = delayChain(net, prev, l.delaySlack(), pack)
	if len(g.Delays) > 0 {
		prev = g.Delays[len(g.Delays)-1:]
	}
	g.Sort = net.AddSTE(classPad, automata.WithName(pack.one("sort")))
	for _, p := range prev {
		net.Connect(p, g.Sort)
	}
	net.Connect(g.Sort, g.Sort)
	g.EOF = net.AddSTE(classEOF, automata.WithName(pack.one("eof")))
	net.Connect(g.Sort, g.EOF)

	// Per-vector collectors, counter, report.
	for vi := 0; vi < ds.Len(); vi++ {
		v := ds.At(vi)
		id := baseID + int32(vi)
		vec := names{prefix: fmt.Sprintf("pack.v%d.", id)}
		counter := net.AddCounter(d, automata.CounterPulse, automata.WithName(vec.one("ihd")))
		taps := make([]automata.ElementID, d)
		for i := range taps {
			if v.Bit(i) {
				taps[i] = g.Ladder[i][1]
			} else {
				taps[i] = g.Ladder[i][0]
			}
		}
		l.collect(net, taps, counter, func(lvl, i, _ int) string { return vec.at("col", lvl) + "_" + strconv.Itoa(i) })
		net.ConnectCount(g.Sort, counter)
		net.ConnectReset(g.EOF, counter)
		report := net.AddSTE(automata.AllClass(),
			automata.WithReport(id), automata.WithName(vec.one("rep")))
		net.Connect(counter, report)

		g.VectorIDs = append(g.VectorIDs, id)
		g.Counters = append(g.Counters, counter)
		g.Reports = append(g.Reports, report)
	}
	return g
}

// PackedSTECost returns the analytical STE cost of packing group vectors
// onto one ladder (1 NFA state ~ 1 STE, the §VII-D model).
func PackedSTECost(l Layout, group int) int {
	collectors := l.collectorTree(l.Dim, func(_, _, _, _ int) {})
	shared := 1 + 2*l.Dim + l.delaySlack() + 2 // guard + ladder + delays + sort + eof
	perVector := collectors + 1                // collector tree + report state
	return shared + group*perVector
}

// PackingSavings returns the analytical resource-saving factor of packing
// vectors in groups of the given size versus unpacked macros, the quantity
// Table VIII reports per workload (2.93x / 3.28x / 3.31x for groups of 4).
func PackingSavings(l Layout, group int) float64 {
	if group <= 0 {
		panic(fmt.Sprintf("core: non-positive pack group %d", group))
	}
	return float64(group*MacroSTECost(l)) / float64(PackedSTECost(l, group))
}
