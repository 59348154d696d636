package core

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/knn"
)

// MaxMuxSlices is the number of parallel queries one 8-bit symbol stream can
// carry: seven, because the eighth bit distinguishes the special framing
// symbols ("we cannot achieve an 8x improvement because of special symbols
// like the SOF and EOF", §VI-B).
const MaxMuxSlices = 7

// Multiplexed special symbols: bit 7 set marks a special; bits 0..2 select
// which. Data symbols keep bit 7 clear and carry one query bit per slice in
// bits 0..6.
const (
	MuxSOF byte = 0x81
	MuxPad byte = 0x82
	MuxEOF byte = 0x84
)

func muxGuardClass() automata.SymbolClass {
	return mustTernary("1******1")
}

func muxEOFClass() automata.SymbolClass {
	return mustTernary("1****1**")
}

func muxPadClass() automata.SymbolClass {
	return muxEOFClass().Negate()
}

// muxBitClass returns the ternary match for query-slice j carrying value v:
// a data symbol (bit 7 clear) whose j-th bit equals v — the TCAM-style
// ternary encoding of §VI-B.
func muxBitClass(slice int, v bool) automata.SymbolClass {
	pattern := []byte("0*******") // MSB first; bit 7 is position 0
	if v {
		pattern[7-slice] = '1'
	} else {
		pattern[7-slice] = '0'
	}
	c, err := automata.TernaryClass(string(pattern))
	if err != nil {
		panic(err)
	}
	return c
}

// MuxGroup is the §VI-B symbol-stream-multiplexing design: for each dataset
// vector, up to seven replica NFAs are instantiated, each programmed with
// ternary matches that observe a different bit slice of the symbol stream,
// so seven queries are answered per stream pass.
type MuxGroup struct {
	Slices int
	// Reports[v][s] is the reporting state of vector v's slice-s replica.
	Reports [][]automata.ElementID
}

// BuildMux appends the multiplexed kNN automata for ds to net. Replica
// (vector v, slice s) reports with ID v*slices + s.
func BuildMux(net *automata.Network, ds *bitvec.Dataset, l Layout, slices int) *MuxGroup {
	if err := l.Validate(); err != nil {
		panic(err)
	}
	if slices < 1 || slices > MaxMuxSlices {
		panic(fmt.Sprintf("core: mux slices %d out of range [1,%d]", slices, MaxMuxSlices))
	}
	if l.PaperExact {
		panic("core: multiplexing requires the monotonic layout")
	}
	d := l.Dim
	g := &MuxGroup{Slices: slices}
	for vi := 0; vi < ds.Len(); vi++ {
		v := ds.At(vi)
		var vecReports []automata.ElementID
		for s := 0; s < slices; s++ {
			id := int32(vi*slices + s)
			name := func(part string, i int) string {
				return fmt.Sprintf("mux.v%d.s%d.%s%d", vi, s, part, i)
			}
			guard := net.AddSTE(muxGuardClass(),
				automata.WithStart(automata.StartAll), automata.WithName(name("guard", 0)))
			prev := guard
			counter := net.AddCounter(d, automata.CounterPulse, automata.WithName(name("ihd", 0)))
			var matches []automata.ElementID
			for i := 0; i < d; i++ {
				match := net.AddSTE(muxBitClass(s, v.Bit(i)), automata.WithName(name("x", i)))
				net.Connect(prev, match)
				matches = append(matches, match)
				star := net.AddSTE(automata.AllClass(), automata.WithName(name("st", i)))
				net.Connect(prev, star)
				prev = star
			}
			level := matches
			for lvl := 0; lvl < l.CollectorDepth(); lvl++ {
				var next []automata.ElementID
				for lo := 0; lo < len(level); lo += l.CollectorFanIn {
					hi := lo + l.CollectorFanIn
					if hi > len(level) {
						hi = len(level)
					}
					col := net.AddSTE(automata.AllClass(), automata.WithName(name("col", lvl)))
					for _, src := range level[lo:hi] {
						net.Connect(src, col)
					}
					next = append(next, col)
				}
				level = next
			}
			net.ConnectCount(level[0], counter)
			for j := 0; j < l.delaySlack(); j++ {
				dly := net.AddSTE(automata.AllClass(), automata.WithName(name("dly", j)))
				net.Connect(prev, dly)
				prev = dly
			}
			sortSte := net.AddSTE(muxPadClass(), automata.WithName(name("sort", 0)))
			net.Connect(prev, sortSte)
			net.Connect(sortSte, sortSte)
			net.ConnectCount(sortSte, counter)
			eof := net.AddSTE(muxEOFClass(), automata.WithName(name("eof", 0)))
			net.Connect(sortSte, eof)
			net.ConnectReset(eof, counter)
			report := net.AddSTE(automata.AllClass(),
				automata.WithReport(id), automata.WithName(name("rep", 0)))
			net.Connect(counter, report)
			vecReports = append(vecReports, report)
		}
		g.Reports = append(g.Reports, vecReports)
	}
	return g
}

// BuildMuxStream packs queries into multiplexed windows of up to `slices`
// queries each: window w carries queries w*slices .. w*slices+slices-1 in
// bit slices 0..slices-1. Missing tail queries are encoded as zeros and
// ignored at decode time.
func BuildMuxStream(queries []bitvec.Vector, l Layout, slices int) []byte {
	if slices < 1 || slices > MaxMuxSlices {
		panic(fmt.Sprintf("core: mux slices %d out of range [1,%d]", slices, MaxMuxSlices))
	}
	windows := (len(queries) + slices - 1) / slices
	out := make([]byte, 0, windows*l.StreamLen())
	for w := 0; w < windows; w++ {
		out = append(out, MuxSOF)
		for i := 0; i < l.Dim; i++ {
			var sym byte
			for s := 0; s < slices; s++ {
				qi := w*slices + s
				if qi < len(queries) && queries[qi].Bit(i) {
					sym |= 1 << uint(s)
				}
			}
			out = append(out, sym)
		}
		for i := 0; i < l.PadSymbols(); i++ {
			out = append(out, MuxPad)
		}
		out = append(out, MuxEOF)
	}
	return out
}

// DecodeMuxReports converts multiplexed report records into per-query
// neighbor lists for numQueries real queries over numVectors vectors. The
// stream has one window per slices queries; in the final window, the
// replicas of slices past the last query report on zero padding and are
// dropped.
func DecodeMuxReports(reports []automata.Report, l Layout, slices, numQueries, numVectors, idOffset int) ([][]knn.Neighbor, error) {
	if slices < 1 || slices > MaxMuxSlices {
		return nil, fmt.Errorf("core: mux slices %d out of range [1,%d]", slices, MaxMuxSlices)
	}
	out := make([][]knn.Neighbor, numQueries)
	windows := (numQueries + slices - 1) / slices
	err := walkReports(reports, l, windows, numVectors*slices, func(w, id, ihd int) {
		if qi := w*slices + id%slices; qi < numQueries {
			out[qi] = append(out[qi], knn.Neighbor{ID: idOffset + id/slices, Dist: l.Dim - ihd})
		}
	})
	if err != nil {
		return nil, err
	}
	for _, ns := range out {
		knn.SortNeighbors(ns)
	}
	return out, nil
}

// MuxThroughputGain returns the query-throughput multiplier of multiplexing
// s slices: s queries per stream pass.
func MuxThroughputGain(s int) float64 { return float64(s) }
