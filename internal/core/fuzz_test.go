package core_test

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/knn"
)

// FuzzDecodeReports feeds arbitrary report streams — including cycles far
// outside any query window, negative cycles and garbage report IDs — to
// every host-side decoder: the plain, multiplexed (1–7 slices),
// multi-dimension and Jaccard ones. Malformed streams must surface as
// errors, never panics; a stream that decodes must have every report
// accounted for, sorted and within distance bounds.
func FuzzDecodeReports(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(0), uint8(0), []byte{0, 10, 0, 0, 0})
	f.Add(uint8(32), uint8(3), uint8(3), uint8(0), []byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 2, 0, 1, 0, 0})
	f.Add(uint8(64), uint8(1), uint8(0), uint8(0), []byte{})
	// A negative report ID: the mux decoder indexed query -1 with it.
	f.Add(uint8(3), uint8(2), uint8(1), uint8(2), []byte{0xFF, 10, 0, 0, 0})
	// A report in window 5 of a one-window stream: the mux decoder dropped
	// it where the plain one refuses it.
	f.Add(uint8(3), uint8(1), uint8(0), uint8(0), []byte{0, 70, 0, 0, 0})
	// Report ID 5 of a one-vector board: the Jaccard decoder indexed its
	// set size past the end.
	f.Add(uint8(3), uint8(1), uint8(0), uint8(0), []byte{5, 10, 0, 0, 0})
	f.Fuzz(func(t *testing.T, dimRaw, nqRaw, nvRaw, slicesRaw uint8, raw []byte) {
		dim := 1 + int(dimRaw)%128
		numQueries := int(nqRaw) % 8
		numVectors := 1 + int(nvRaw)%16
		slices := 1 + int(slicesRaw)%core.MaxMuxSlices
		l := core.NewLayout(dim)

		var reports []automata.Report
		for i := 0; i+5 <= len(raw) && len(reports) < 256; i += 5 {
			reports = append(reports, automata.Report{
				ReportID: int32(int8(raw[i])),
				Cycle:    int(int32(binary.LittleEndian.Uint32(raw[i+1 : i+5]))),
			})
		}

		plain, err := core.DecodeReports(reports, l, numQueries, numVectors, 0)
		if err == nil {
			checkNeighbors(t, "plain", plain, numQueries, numVectors, dim, len(reports))
		}

		// With one slice the mux stream is the plain one: same windows,
		// same IDs, so the two decoders must agree report for report.
		mux, muxErr := core.DecodeMuxReports(reports, l, slices, numQueries, numVectors, 0)
		if slices == 1 && (muxErr == nil) != (err == nil) {
			t.Fatalf("one-slice mux decode error %v, plain decode error %v", muxErr, err)
		}
		if muxErr == nil {
			// Every report lies inside the stream; only replicas of slices
			// past the last query, in the final window, are not delivered.
			want := 0
			for _, r := range reports {
				w := r.Cycle / l.StreamLen()
				if r.Cycle < 0 || w >= (numQueries+slices-1)/slices || r.ReportID < 0 || int(r.ReportID) >= numVectors*slices {
					t.Fatalf("mux decoder accepted report %+v", r)
				}
				if w*slices+int(r.ReportID)%slices < numQueries {
					want++
				}
			}
			checkNeighbors(t, "mux", mux, numQueries, numVectors, dim, want)
			if slices == 1 && !reflect.DeepEqual(mux, plain) {
				t.Fatalf("one-slice mux decode %v, plain decode %v", mux, plain)
			}
		}

		md, err := core.DecodeMultiDimReports(reports, core.NewMultiDimLayout(dim), numQueries, numVectors, 0)
		if err == nil {
			checkNeighbors(t, "multi-dim", md, numQueries, numVectors, dim, len(reports))
		}

		setBits := make([]int, numVectors)
		for i := range setBits {
			setBits[i] = i % (dim + 1)
		}
		queryBits := make([]int, numQueries)
		for q := range queryBits {
			queryBits[q] = (dim - q) % (dim + 1)
		}
		jac, err := core.DecodeJaccardReports(reports, l, numQueries, setBits, queryBits)
		if err != nil {
			return
		}
		if len(jac) != numQueries {
			t.Fatalf("jaccard: decoded %d query lists, want %d", len(jac), numQueries)
		}
		total := 0
		for qi, rs := range jac {
			total += len(rs)
			for j, r := range rs {
				if r.ID < 0 || r.ID >= numVectors || r.Intersection < 0 || r.Intersection > dim {
					t.Fatalf("jaccard query %d result %d: %+v outside %d vectors of dim %d", qi, j, r, numVectors, dim)
				}
				if j > 0 && (r.Similarity > rs[j-1].Similarity || r.Similarity == rs[j-1].Similarity && r.ID < rs[j-1].ID) {
					t.Fatalf("jaccard query %d: results not (similarity, ID)-sorted at %d", qi, j)
				}
			}
		}
		if total != len(reports) {
			t.Fatalf("jaccard: %d results from %d reports", total, len(reports))
		}
	})
}

// checkNeighbors holds a decoder's output to its shape: one list per
// query, want neighbors in all, every one a vector of the board at a
// distance within [0, dim], each list (dist, ID)-sorted.
func checkNeighbors(t *testing.T, what string, decoded [][]knn.Neighbor, numQueries, numVectors, dim, want int) {
	t.Helper()
	if len(decoded) != numQueries {
		t.Fatalf("%s: decoded %d query lists, want %d", what, len(decoded), numQueries)
	}
	total := 0
	for qi, ns := range decoded {
		total += len(ns)
		for j, n := range ns {
			if n.ID < 0 || n.ID >= numVectors || n.Dist < 0 || n.Dist > dim {
				t.Fatalf("%s query %d neighbor %d: %v outside %d vectors of dim %d", what, qi, j, n, numVectors, dim)
			}
			if j > 0 && n.Less(ns[j-1]) {
				t.Fatalf("%s query %d: neighbors not (dist, ID)-sorted at %d", what, qi, j)
			}
		}
	}
	if total != want {
		t.Fatalf("%s: %d neighbors from %d deliverable reports", what, total, want)
	}
}
