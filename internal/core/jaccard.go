package core

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/bitvec"
)

// Jaccard support. §II-C notes that besides Hamming distance, "Jaccard
// similarity on the AP is well-documented and can be efficiently
// implemented": the intersection size |A ∩ B| is countable with the same
// macro structure by matching only the dimensions where the encoded vector
// has a 1-bit, and the temporal sort then orders vectors by descending
// intersection size. The host combines the intersection with the known set
// sizes to obtain the Jaccard index |A∩B| / (|A| + |B| - |A∩B|).

// BuildJaccardMacro appends a macro that counts |v ∩ query| and reports at
// cycle ReportCycle(intersection) under the same layout timing as the
// Hamming macro. Only 1-bits of v get match states, so the macro is smaller
// for sparse vectors.
func BuildJaccardMacro(net *automata.Network, v bitvec.Vector, l Layout, reportID int32) {
	if err := l.Validate(); err != nil {
		panic(err)
	}
	if v.Dim() != l.Dim {
		panic(fmt.Sprintf("core: vector dim %d != layout dim %d", v.Dim(), l.Dim))
	}
	if l.PaperExact {
		panic("core: Jaccard macros require the monotonic layout")
	}
	m := newSkeleton(net, classGuard, names{prefix: fmt.Sprintf("j%d.", reportID)})
	for i := 0; i < l.Dim; i++ {
		if v.Bit(i) {
			m.match(classBit1, i)
		}
		m.star("s", i)
	}

	// The counter still counts to d: the sort phase uniformly tops up from
	// the intersection size, so the temporal order is by descending
	// intersection and ReportCycle/IHDFromCycle decode unchanged.
	m.Counter = net.AddCounter(l.Dim, automata.CounterPulse, automata.WithName(m.one("cnt")))

	// Collector tree over however many match states exist; keep the tree the
	// same depth as the layout's Hamming tree so timing stays aligned.
	leaves := m.Matches
	if len(leaves) == 0 {
		// Degenerate all-zero vector: intersection is always 0; a never-
		// matching state keeps the counter's count port legal.
		dead := net.AddSTE(automata.EmptyClass(), automata.WithName(m.at("dead", 0)))
		net.Connect(m.Guard, dead)
		leaves = []automata.ElementID{dead}
	}
	l.collect(net, leaves, m.Counter, func(lvl, _, _ int) string { return m.at("col", lvl) })
	m.sortTail(l.delaySlack(), classPad, classEOF, reportID)
}

// JaccardResult is one decoded Jaccard match.
type JaccardResult struct {
	ID int
	// Similarity is the Jaccard index in [0, 1].
	Similarity float64
}

// DecodeJaccardReports converts report records into per-query Jaccard
// results sorted by descending similarity (ties by ID). setBits[i] must hold
// the i-th encoded vector's population count, so the report IDs are
// [0, len(setBits)); queryBits[q] holds query q's.
func DecodeJaccardReports(reports []automata.Report, l Layout, numQueries int, setBits []int, queryBits []int) ([][]JaccardResult, error) {
	if len(queryBits) < numQueries {
		return nil, fmt.Errorf("core: %d query set sizes for %d queries", len(queryBits), numQueries)
	}
	out := make([][]JaccardResult, numQueries)
	err := walkReports(reports, l, numQueries, len(setBits), func(q, id, inter int) {
		union := setBits[id] + queryBits[q] - inter
		sim := 1.0 // both sets empty
		if union > 0 {
			sim = float64(inter) / float64(union)
		}
		out[q] = append(out[q], JaccardResult{ID: id, Similarity: sim})
	})
	if err != nil {
		return nil, err
	}
	for _, rs := range out {
		sortJaccard(rs)
	}
	return out, nil
}

func sortJaccard(rs []JaccardResult) {
	// Insertion sort: result lists are per-query and small-to-moderate; a
	// dependency-free sort keeps this file self-contained.
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && jaccardLess(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func jaccardLess(a, b JaccardResult) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity > b.Similarity
	}
	return a.ID < b.ID
}

// JaccardSimilarity is the host reference: |a ∩ b| / |a ∪ b|.
func JaccardSimilarity(a, b bitvec.Vector) float64 {
	if a.Dim() != b.Dim() {
		panic(fmt.Sprintf("core: dim mismatch %d vs %d", a.Dim(), b.Dim()))
	}
	inter := 0
	union := 0
	for i := 0; i < a.Dim(); i++ {
		ab, bb := a.Bit(i), b.Bit(i)
		if ab && bb {
			inter++
		}
		if ab || bb {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
