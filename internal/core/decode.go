package core

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/knn"
)

// windowLayout is what the report walk needs of a stream layout: the length
// of one query window and the inverted Hamming distance a cycle offset
// within it encodes. Layout and MultiDimLayout are both one.
type windowLayout interface {
	StreamLen() int
	IHDFromCycle(offset int) (int, error)
}

// walkReports is the report walk every decoder shares. A report must fall on
// a non-negative cycle inside one of the stream's windows query windows, on
// an offset that encodes an inverted Hamming distance, and carry a report
// ID in [0, ids); the first report that does not is the error. visit gets
// each report's window, ID and inverted Hamming distance, in stream order.
func walkReports(reports []automata.Report, l windowLayout, windows, ids int, visit func(window, id, ihd int)) error {
	n := l.StreamLen()
	for _, r := range reports {
		if r.Cycle < 0 {
			return fmt.Errorf("core: report at negative cycle %d", r.Cycle)
		}
		w, off := r.Cycle/n, r.Cycle%n
		if w >= windows {
			return fmt.Errorf("core: report at cycle %d beyond the %d-window stream", r.Cycle, windows)
		}
		if r.ReportID < 0 || int(r.ReportID) >= ids {
			return fmt.Errorf("core: report ID %d outside [0,%d)", r.ReportID, ids)
		}
		ihd, err := l.IHDFromCycle(off)
		if err != nil {
			return fmt.Errorf("core: window %d: %w", w, err)
		}
		visit(w, int(r.ReportID), ihd)
	}
	return nil
}

// DecodeReports converts raw AP report records into per-query neighbor
// lists. Each reporting activation carries the vector's report ID and the
// cycle offset at which its counter crossed the threshold; the offset within
// the query window encodes the inverted Hamming distance (§III-B), which the
// host converts back to a Hamming distance. Result lists are sorted by
// (distance, ID) — equidistant vectors report on the same cycle and the host
// breaks the tie by ID.
//
// Report IDs are the positions of the board's numVectors macros; idOffset
// translates them into dataset IDs, which the partial-reconfiguration
// driver uses across board configurations and boards.
func DecodeReports(reports []automata.Report, l Layout, numQueries, numVectors, idOffset int) ([][]knn.Neighbor, error) {
	return decodeNeighbors(reports, l, l.Dim, numQueries, numVectors, idOffset)
}

// decodeNeighbors is DecodeReports over any window layout of dimension dim.
func decodeNeighbors(reports []automata.Report, l windowLayout, dim, numQueries, numVectors, idOffset int) ([][]knn.Neighbor, error) {
	out := make([][]knn.Neighbor, numQueries)
	err := walkReports(reports, l, numQueries, numVectors, func(q, id, ihd int) {
		out[q] = append(out[q], knn.Neighbor{ID: idOffset + id, Dist: dim - ihd})
	})
	if err != nil {
		return nil, err
	}
	for _, ns := range out {
		knn.SortNeighbors(ns)
	}
	return out, nil
}

// TopK truncates a (Dist, ID)-sorted neighbor list to its k best entries.
func TopK(ns []knn.Neighbor, k int) []knn.Neighbor {
	if k > len(ns) {
		k = len(ns)
	}
	return ns[:k]
}
