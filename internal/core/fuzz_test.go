package core_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/anml"
	"repro/internal/automata"
	"repro/internal/bitvec"
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
				// The plain decode of the same reports bounds each
				// intersection to [0, dim] through its distances.
				if r.ID < 0 || r.ID >= numVectors {
					t.Fatalf("jaccard query %d result %d: %+v outside %d vectors", qi, j, r, numVectors)
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

// FuzzDesignNetworks builds one random design over 1–4 vectors of
// d ∈ [1, 40], all-zero vectors allowed: plain on NewLayout or PaperLayout,
// packed on either, mux with 1–7 slices, Jaccard, multi-dim with 1–7
// dimensions per symbol, or a reduction group with k′ ≥ 1. Every network
// must validate and come back from anml.Encode → Decode → Encode byte for
// byte. On NewLayout the plain, packed and mux networks, and the multi-dim
// one under ExtendedIncrement, must also decode one simulated query window
// to every vector's exact Hamming distance; PaperLayout's Fig. 3 timing may
// report a distance one cycle off (TestFig4PaperLayoutHazard), so its
// networks are only built.
func FuzzDesignNetworks(f *testing.F) {
	// design: 0 plain, 1 packed, 2 mux, 3 Jaccard, 4 multi-dim, 5 reduction;
	// d = 1 + dimRaw; an odd param picks PaperLayout for plain and packed.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte{0x01})        // plain, d = 1
	f.Add(uint8(0), uint8(15), uint8(0), uint8(2), []byte{0xA5, 0x3C}) // plain, d = 16
	f.Add(uint8(0), uint8(16), uint8(1), uint8(1), []byte{0x5A})       // plain on PaperLayout, d = 17
	f.Add(uint8(1), uint8(16), uint8(0), uint8(1), []byte{0xFF, 0x0F}) // packed, d = 17
	f.Add(uint8(2), uint8(16), uint8(6), uint8(3), []byte{0x5A, 0xC3}) // mux, 7 slices, d = 17
	f.Add(uint8(3), uint8(15), uint8(0), uint8(1), []byte{})           // Jaccard, all-zero vectors
	f.Add(uint8(4), uint8(16), uint8(2), uint8(1), []byte{0x00, 0x00}) // multi-dim, all-zero
	f.Add(uint8(5), uint8(15), uint8(2), uint8(3), []byte{0x12, 0x34}) // reduction, k' = 2
	f.Fuzz(func(t *testing.T, design, dimRaw, param, countRaw uint8, bits []byte) {
		d := 1 + int(dimRaw)%40
		next := 0 // the next bit of bits to read; bits past the end read 0
		vector := func() bitvec.Vector {
			v := bitvec.New(d)
			for i := 0; i < d; i, next = i+1, next+1 {
				if next/8 < len(bits) && bits[next/8]>>(next%8)&1 == 1 {
					v.Set(i, true)
				}
			}
			return v
		}
		ds := bitvec.NewDataset(d)
		for i := 0; i <= int(countRaw)%4; i++ {
			ds.Append(vector())
		}
		l := core.NewLayout(d)
		if param%2 == 1 && d > 1 { // PaperLayout(1) has a collector of fan-in 1
			l = core.PaperLayout(d)
		}

		net := automata.NewNetwork()
		var queries []bitvec.Vector
		var decode func(reports []automata.Report) ([][]knn.Neighbor, error)
		var stream []byte
		extended := false
		switch design % 6 {
		case 0:
			core.BuildLinear(net, ds, l)
		case 1:
			core.BuildPacked(net, ds, l, 0)
		case 2:
			l = core.NewLayout(d)
			slices := 1 + int(param)%core.MaxMuxSlices
			core.BuildMux(net, ds, l, slices)
			for s := 0; s < slices; s++ {
				queries = append(queries, vector())
			}
			stream = core.BuildMuxStream(queries, l, slices)
			decode = func(reports []automata.Report) ([][]knn.Neighbor, error) {
				return core.DecodeMuxReports(reports, l, slices, slices, ds.Len(), 0)
			}
		case 3:
			l = core.NewLayout(d)
			for i := 0; i < ds.Len(); i++ {
				core.BuildJaccardMacro(net, ds.At(i), l, int32(i))
			}
		case 4:
			ml := core.MultiDimLayout{Dim: d, DimsPerSymbol: 1 + int(param)%7}
			for i := 0; i < ds.Len(); i++ {
				core.BuildMultiDimMacro(net, ds.At(i), ml, int32(i))
			}
			queries = []bitvec.Vector{vector()}
			stream = core.BuildMultiDimStream(queries, ml)
			decode = func(reports []automata.Report) ([][]knn.Neighbor, error) {
				return core.DecodeMultiDimReports(reports, ml, 1, ds.Len(), 0)
			}
			extended = true
		case 5:
			core.BuildReductionGroup(net, ds, l, 1+int(param)/2%4, 0)
		}
		if design%6 <= 1 && !l.PaperExact {
			queries = []bitvec.Vector{vector()}
			stream = core.BuildStream(queries, l)
			decode = func(reports []automata.Report) ([][]knn.Neighbor, error) {
				return core.DecodeReports(reports, l, 1, ds.Len(), 0)
			}
		}

		if err := net.Validate(); err != nil {
			t.Fatalf("design %d: %v", design%6, err)
		}
		var first, second bytes.Buffer
		if err := anml.Encode(&first, net, "fuzz"); err != nil {
			t.Fatal(err)
		}
		back, _, err := anml.Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("design %d: decode: %v", design%6, err)
		}
		if err := anml.Encode(&second, back, "fuzz"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("design %d: ANML round trip changed the network", design%6)
		}

		if decode == nil {
			return
		}
		sim, err := automata.NewSimulator(net)
		if err != nil {
			t.Fatal(err)
		}
		sim.ExtendedIncrement = extended
		got, err := decode(sim.Run(stream))
		if err != nil {
			t.Fatalf("design %d: %v", design%6, err)
		}
		for qi, q := range queries {
			if len(got[qi]) != ds.Len() {
				t.Fatalf("design %d query %d: %d neighbors, want all %d vectors", design%6, qi, len(got[qi]), ds.Len())
			}
			for _, n := range got[qi] {
				if want := ds.Hamming(n.ID, q); n.Dist != want {
					t.Fatalf("design %d query %d: vector %d at distance %d, want %d", design%6, qi, n.ID, n.Dist, want)
				}
			}
		}
	})
}
