package core

import (
	"fmt"

	"repro/internal/bitvec"
)

// BuildQueryStream encodes one query vector as a symbol-stream window
// (Fig. 2c): SOF, the d query bits, the ^EOF padding that drives the
// temporal sort, and EOF.
func BuildQueryStream(q bitvec.Vector, l Layout) []byte {
	return appendQueryStream(make([]byte, 0, l.StreamLen()), q, l)
}

// BuildStream concatenates the query windows of a batch into one symbol
// stream, the way the host drives the AP (§II-B).
func BuildStream(queries []bitvec.Vector, l Layout) []byte {
	out := make([]byte, 0, len(queries)*l.StreamLen())
	for _, q := range queries {
		out = appendQueryStream(out, q, l)
	}
	return out
}

// appendQueryStream appends q's symbol-stream window to out.
func appendQueryStream(out []byte, q bitvec.Vector, l Layout) []byte {
	if q.Dim() != l.Dim {
		panic(fmt.Sprintf("core: query dim %d != layout dim %d", q.Dim(), l.Dim))
	}
	return appendWindow(out, SymSOF, SymPad, SymEOF, l.Dim, l.PadSymbols(), func(i int) byte {
		if q.Bit(i) {
			return SymBit1
		}
		return SymBit0
	})
}

// appendWindow appends one query window of a symbol stream (Fig. 2c): sof,
// data symbols, of which sym(t) is the t-th, pads copies of pad, and eof.
func appendWindow(out []byte, sof, pad, eof byte, data, pads int, sym func(t int) byte) []byte {
	out = append(out, sof)
	for t := 0; t < data; t++ {
		out = append(out, sym(t))
	}
	for i := 0; i < pads; i++ {
		out = append(out, pad)
	}
	return append(out, eof)
}

// WindowOf returns which query window a stream cycle belongs to and the
// offset within it.
func (l Layout) WindowOf(cycle int) (query, offset int) {
	n := l.StreamLen()
	return cycle / n, cycle % n
}
