package core

import (
	"fmt"
	"math/bits"

	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/knn"
)

// ---- §VII-A: counter increment extension ----

// MultiDimLayout is the stream layout of the counter-increment extension:
// each data symbol carries up to seven vector dimensions, so the Hamming
// phase shrinks from d to ceil(d/7) cycles while the sort phase stays d —
// the paper's "d + d/7 cycles which is a 43% improvement or 1.75x better".
// The design requires counters that accept multiple simultaneous increments
// (Simulator.ExtendedIncrement) and removes the collector tree entirely:
// match states drive the counter's increment port directly.
type MultiDimLayout struct {
	Dim           int
	DimsPerSymbol int // 1..7
}

// NewMultiDimLayout returns the layout packing the maximum 7 dimensions per
// symbol.
func NewMultiDimLayout(d int) MultiDimLayout {
	return MultiDimLayout{Dim: d, DimsPerSymbol: 7}
}

// Validate checks the layout.
func (l MultiDimLayout) Validate() error {
	if l.Dim <= 0 {
		return fmt.Errorf("core: multi-dim layout dimension %d must be positive", l.Dim)
	}
	if l.DimsPerSymbol < 1 || l.DimsPerSymbol > 7 {
		return fmt.Errorf("core: dims per symbol %d out of range [1,7]", l.DimsPerSymbol)
	}
	return nil
}

// DataSymbols returns the number of data symbols per query.
func (l MultiDimLayout) DataSymbols() int {
	return (l.Dim + l.DimsPerSymbol - 1) / l.DimsPerSymbol
}

// StreamLen returns symbols per query window: SOF + data + pads + EOF.
func (l MultiDimLayout) StreamLen() int {
	return l.DataSymbols() + l.Dim + 3
}

// ReportCycle returns the report cycle for inverted Hamming distance ihd.
func (l MultiDimLayout) ReportCycle(ihd int) int {
	if ihd < 0 || ihd > l.Dim {
		panic(fmt.Sprintf("core: ihd %d out of range [0,%d]", ihd, l.Dim))
	}
	return l.DataSymbols() + 2 + l.Dim - ihd
}

// IHDFromCycle inverts ReportCycle.
func (l MultiDimLayout) IHDFromCycle(cycle int) (int, error) {
	ihd := l.DataSymbols() + 2 + l.Dim - cycle
	if ihd < 0 || ihd > l.Dim {
		return 0, fmt.Errorf("core: multi-dim report cycle %d outside sort window", cycle)
	}
	return ihd, nil
}

// SpeedupOverPlain returns the query-latency improvement over the plain
// design (paper: 1.75x at 7 dims/symbol).
func (l MultiDimLayout) SpeedupOverPlain() float64 {
	plain := 2 * l.Dim
	ext := l.DataSymbols() + l.Dim
	return float64(plain) / float64(ext)
}

// BuildMultiDimMacro appends a counter-increment-extension macro encoding v.
// It uses the multiplexed special symbols (bit 7 framing) and bit-sliced
// ternary matches; the simulator must run with ExtendedIncrement enabled.
func BuildMultiDimMacro(net *automata.Network, v bitvec.Vector, l MultiDimLayout, reportID int32) *Macro {
	if err := l.Validate(); err != nil {
		panic(err)
	}
	if v.Dim() != l.Dim {
		panic(fmt.Sprintf("core: vector dim %d != layout dim %d", v.Dim(), l.Dim))
	}
	m := newSkeleton(net, muxGuardClass(), names{fmt.Sprintf("md%d.", reportID), "0"})
	m.Counter = net.AddCounter(l.Dim, automata.CounterPulse, automata.WithName(m.one("ihd")))
	for t := 0; t < l.DataSymbols(); t++ {
		lo := t * l.DimsPerSymbol
		for j := lo; j < min(lo+l.DimsPerSymbol, l.Dim); j++ {
			// §VII-A: with multi-increment counters the collector tree
			// disappears; matches drive the counter directly.
			net.ConnectCount(m.match(muxBitClass(j-lo, v.Bit(j)), j), m.Counter)
		}
		m.star("s", t)
	}
	m.sortTail(0, muxPadClass(), muxEOFClass(), reportID)
	return &m.Macro
}

// BuildMultiDimStream encodes queries for the counter-increment extension:
// each data symbol packs DimsPerSymbol dimensions into bits 0..6.
func BuildMultiDimStream(queries []bitvec.Vector, l MultiDimLayout) []byte {
	out := make([]byte, 0, len(queries)*l.StreamLen())
	for _, q := range queries {
		if q.Dim() != l.Dim {
			panic(fmt.Sprintf("core: query dim %d != layout dim %d", q.Dim(), l.Dim))
		}
		out = appendWindow(out, MuxSOF, MuxPad, MuxEOF, l.DataSymbols(), l.Dim+1, func(t int) byte {
			var sym byte
			lo := t * l.DimsPerSymbol
			for j := lo; j < lo+l.DimsPerSymbol && j < l.Dim; j++ {
				if q.Bit(j) {
					sym |= 1 << uint(j-lo)
				}
			}
			return sym
		})
	}
	return out
}

// DecodeMultiDimReports converts extension report records to neighbor
// lists, with DecodeReports' checks and ID translation.
func DecodeMultiDimReports(reports []automata.Report, l MultiDimLayout, numQueries, numVectors, idOffset int) ([][]knn.Neighbor, error) {
	return decodeNeighbors(reports, l, l.Dim, numQueries, numVectors, idOffset)
}

// ---- §VII-B: dynamic counter thresholds ----

// BuildComparisonMacro wires enA and enB (any activation sources) into the
// Fig. 8 construct: two counters driven by event streams A and B, and an
// output state that activates while count(A) > count(B) — the "if (A > B)
// ... else ..." building block the extension enables. rst resets both
// counters; the output state reports with reportID.
func BuildComparisonMacro(net *automata.Network, enA, enB, rst automata.ElementID, reportID int32) {
	// B is an ordinary counter whose live count serves as A's threshold; its
	// own static threshold is unreachable so it never fires on its own.
	b := net.AddCounter(1<<30, automata.CounterPulse, automata.WithName("cmp.b"))
	net.ConnectCount(enB, b)
	net.ConnectReset(rst, b)
	a := net.AddDynamicCounter(b, automata.WithName("cmp.a"))
	net.ConnectCount(enA, a)
	net.ConnectReset(rst, a)
	out := net.AddSTE(automata.AllClass(),
		automata.WithReport(reportID), automata.WithName("cmp.out"))
	net.Connect(a, out)
}

// ---- §VII-C: STE decomposition ----

// DecompositionReport is the resource analysis behind Table VII: the
// distribution of minimal LUT widths across a design's STEs and the
// resulting savings from decomposing 8-input STEs into x smaller ones.
type DecompositionReport struct {
	TotalSTEs int
	// Widths[w] counts STEs whose symbol class depends on w input bits.
	Widths [9]int
}

// AnalyzeDecomposition computes the exact minimal bit width of every STE's
// symbol class in net.
func AnalyzeDecomposition(net *automata.Network) *DecompositionReport {
	r := &DecompositionReport{}
	for i := 0; i < net.Len(); i++ {
		id := automata.ElementID(i)
		if net.KindOf(id) != automata.KindSTE {
			continue
		}
		r.TotalSTEs++
		r.Widths[net.ClassOf(id).MinimalBitWidth()]++
	}
	return r
}

// Savings returns the resource-saving factor at decomposition factor x
// (a power of two: an 8-input STE becomes x STEs of 8-log2(x) inputs). The
// cost model follows §VII-C: states narrow enough to fit a decomposed STE
// pack x per physical STE; wider states still cost a whole one.
func (r *DecompositionReport) Savings(x int) float64 {
	if x < 1 || x&(x-1) != 0 || x > 256 {
		panic(fmt.Sprintf("core: decomposition factor %d must be a power of two in [1,256]", x))
	}
	if r.TotalSTEs == 0 {
		return 1
	}
	lutWidth := 8 - bits.TrailingZeros(uint(x))
	fit, unfit := 0, 0
	for w := 0; w <= 8; w++ {
		if w <= lutWidth {
			fit += r.Widths[w]
		} else {
			unfit += r.Widths[w]
		}
	}
	cost := (fit+x-1)/x + unfit
	return float64(r.TotalSTEs) / float64(cost)
}

// ---- §VII-D: technology scaling ----

// TechnologyScaling returns the density gain from shrinking the AP's 50 nm
// lithography to a competing node: (50/nm)^2, the paper's 3.19x at 28 nm.
func TechnologyScaling(targetNm float64) float64 {
	return (50 / targetNm) * (50 / targetNm)
}
