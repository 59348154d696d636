// Package core implements the paper's primary contribution: automata designs
// for k-nearest-neighbor similarity search on the AP (§III).
//
// Each dataset vector becomes a Hamming macro — a guard state, a star/match
// compute chain, a collector reduction tree and an inverted-Hamming-distance
// counter — extended with a sorting macro whose temporally encoded sort makes
// closer vectors report earlier (Fig. 2). The package also provides the
// symbol-stream builders, the three automata optimizations of §VI (vector
// packing, symbol-stream multiplexing, statistical activation reduction) and
// the architectural extensions of §VII.
//
// The designs share one Fig. 2 skeleton (macro.go): the guard and the
// star/match chain (newSkeleton, skeleton.match and skeleton.star), the
// §III-A collector tree (Layout.collectorTree walks its shape, which
// MacroSTECost and PackedSTECost count and Layout.collect builds), the
// delay chain (delayChain) and the sort/EOF/report tail
// (skeleton.sortTail); one window writer (appendWindow) frames every query
// window of BuildStream, BuildMuxStream and BuildMultiDimStream. The plain
// macro (BuildMacro, under BuildLinear and BuildReductionGroup), the
// multiplexed replicas (BuildMux) and the Jaccard macro
// (BuildJaccardMacro) are built from all of these parts; the
// multi-dimension macro (BuildMultiDimMacro) has neither collector tree nor
// delays. The packed group (BuildPacked) takes only the collector tree and
// the delay chain: its shared ladder replaces the chain, and its shared
// sort and EOF states feed every packed vector's counter.
//
// The AP search itself is one loop (§III-B, §III-C), kept once: Engine
// streams a batch against each precompiled partition on a simulated board,
// decodes the report cycles back to distances and merges on the host.
// NewEngine and NewApproxEngine differ only in the network a partition
// holds (§VI-C's reduction groups for the latter). Every report decoder —
// plain, multiplexed, multi-dimension and Jaccard — walks the report windows
// through one shared check of the cycle, the window and the report ID.
// FastEngine is Engine's results from Hamming distances; no backend serves
// through it, and it stays because bench/'s ap.fast_query_ns times its Query.
package core

import (
	"fmt"
)

// Symbol-stream alphabet. Specials occupy dedicated high bits so every STE
// class in the plain kNN design is a one-bit ternary match, the property the
// STE-decomposition analysis of §VII-C exploits. Data symbols carry the
// query bit for the current dimension in bit 0.
const (
	SymBit0 byte = 0x00 // query bit 0
	SymBit1 byte = 0x01 // query bit 1
	SymSOF  byte = 0x80 // start of file: begins a query window (bit 7)
	SymPad  byte = 0x40 // ^EOF filler driving the temporal sort (bit 6)
	SymEOF  byte = 0x20 // end of file: resets counters (bit 5)
)

// Layout fixes the temporal structure of one query window: how many collector
// levels the Hamming macro uses, how long the sort phase runs, and therefore
// at which cycle a vector of a given inverted Hamming distance reports.
//
// Reproduction note (see README.md): with the paper's Fig. 2c/3 layout the
// sort state's first counter increment coincides with the final collector
// flush, so whether the last dimension matched shifts the report cycle by
// one and adjacent distances can collide. The default layout therefore
// delays the sort state by DelaySlack >= CollectorDepth cycles, which makes
// the temporal sort provably monotonic. PaperExact reproduces the original
// Fig. 3 timing for the golden trace tests.
type Layout struct {
	// Dim is the vector dimensionality d.
	Dim int
	// CollectorFanIn bounds the fan-in of each collector state; larger trees
	// are split into levels ("a reduction tree of '*' states to limit the
	// maximum state fan in and improve routability", §III-A).
	CollectorFanIn int
	// DelaySlack is the number of delay states between the compute chain and
	// the sort state. Monotonic sorting requires DelaySlack >= CollectorDepth.
	DelaySlack int
	// PaperExact selects the paper's Fig. 2/3 layout: a single collector,
	// no delay slack, and d+2 padding symbols.
	PaperExact bool
}

// NewLayout returns the default, provably monotonic layout for dimension d.
func NewLayout(d int) Layout {
	l := Layout{Dim: d, CollectorFanIn: 16}
	l.DelaySlack = l.CollectorDepth()
	return l
}

// PaperLayout returns the layout that replicates the paper's Fig. 3 cycle
// timing exactly (single collector, no delay).
func PaperLayout(d int) Layout {
	return Layout{Dim: d, CollectorFanIn: d, PaperExact: true}
}

// Validate checks the layout invariants.
func (l Layout) Validate() error {
	if l.Dim <= 0 {
		return fmt.Errorf("core: layout dimension %d must be positive", l.Dim)
	}
	if l.CollectorFanIn <= 1 {
		return fmt.Errorf("core: collector fan-in %d must be at least 2", l.CollectorFanIn)
	}
	if !l.PaperExact && l.DelaySlack != l.CollectorDepth() {
		// Slack below the collector depth lets sort increments overlap
		// collector flushes (the Fig. 3 hazard); slack above it makes the
		// all-dimensions-match case report off-schedule. Both break the
		// cycle -> distance decoding, so the slack is pinned to the depth.
		return fmt.Errorf("core: delay slack %d must equal collector depth %d for a monotonic, decodable sort",
			l.DelaySlack, l.CollectorDepth())
	}
	return nil
}

// CollectorDepth returns the number of collector levels needed to reduce d
// match states with the configured fan-in.
func (l Layout) CollectorDepth() int {
	if l.PaperExact {
		return 1
	}
	depth := 0
	n := l.Dim
	for n > 1 {
		n = (n + l.CollectorFanIn - 1) / l.CollectorFanIn
		depth++
	}
	if depth == 0 {
		depth = 1 // a single match state still passes through one collector
	}
	return depth
}

// PadSymbols returns the number of ^EOF filler symbols per query (Fig. 2c).
func (l Layout) PadSymbols() int {
	if l.PaperExact {
		return l.Dim + 2
	}
	return l.Dim + l.DelaySlack + 1
}

// StreamLen returns the total symbols per query window:
// SOF + d data symbols + padding + EOF.
func (l Layout) StreamLen() int {
	return 1 + l.Dim + l.PadSymbols() + 1
}

// ReportCycle returns the cycle offset within a query window at which a
// vector with inverted Hamming distance ihd reports. Closer vectors (higher
// ihd) report earlier — the temporal sort of §III-B.
//
// For PaperExact layouts the value is nominal: the Fig. 3 timing carries a
// one-cycle ambiguity depending on whether the final dimension matched.
func (l Layout) ReportCycle(ihd int) int {
	if ihd < 0 || ihd > l.Dim {
		panic(fmt.Sprintf("core: inverted Hamming distance %d out of range [0,%d]", ihd, l.Dim))
	}
	if l.PaperExact {
		return 2*l.Dim + 3 - ihd
	}
	return 2*l.Dim + l.DelaySlack + 2 - ihd
}

// IHDFromCycle inverts ReportCycle: the inverted Hamming distance implied by
// a report at the given cycle offset within a query window.
func (l Layout) IHDFromCycle(cycle int) (int, error) {
	var ihd int
	if l.PaperExact {
		ihd = 2*l.Dim + 3 - cycle
	} else {
		ihd = 2*l.Dim + l.DelaySlack + 2 - cycle
	}
	if ihd < 0 || ihd > l.Dim {
		return 0, fmt.Errorf("core: report cycle %d outside the sort window of layout d=%d", cycle, l.Dim)
	}
	return ihd, nil
}
