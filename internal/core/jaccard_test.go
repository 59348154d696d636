package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ap"
	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/stats"
)

// TestJaccardMacroIntersection: the macro's report cycle must encode the
// intersection size exactly.
func TestJaccardMacroIntersection(t *testing.T) {
	f := func(seedV, seedQ uint64, rawDim uint8) bool {
		dim := int(rawDim)%24 + 2
		l := NewLayout(dim)
		v := bitvec.Random(stats.NewRNG(seedV), dim)
		q := bitvec.Random(stats.NewRNG(seedQ), dim)
		net := automata.NewNetwork()
		BuildJaccardMacro(net, v, l, 0)
		sim := automata.MustSimulator(net)
		reports := sim.Run(BuildQueryStream(q, l))
		if len(reports) != 1 {
			return false
		}
		wantInter := 0
		for i := 0; i < dim; i++ {
			if v.Bit(i) && q.Bit(i) {
				wantInter++
			}
		}
		return reports[0].Cycle == l.ReportCycle(wantInter)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestJaccardMacroAllZeroVector(t *testing.T) {
	dim := 8
	l := NewLayout(dim)
	net := automata.NewNetwork()
	BuildJaccardMacro(net, bitvec.New(dim), l, 0)
	sim := automata.MustSimulator(net)
	reports := sim.Run(BuildQueryStream(bitvec.Random(stats.NewRNG(1), dim), l))
	if len(reports) != 1 || reports[0].Cycle != l.ReportCycle(0) {
		t.Errorf("all-zero vector reports = %v, want cycle %d", reports, l.ReportCycle(0))
	}
}

func TestJaccardDecodeMatchesReference(t *testing.T) {
	rng := stats.NewRNG(606)
	const dim, n = 16, 10
	l := NewLayout(dim)
	ds := bitvec.RandomDataset(rng, n, dim)
	queries := []bitvec.Vector{bitvec.Random(rng, dim), bitvec.Random(rng, dim)}
	net := automata.NewNetwork()
	setBits := make([]int, n)
	for i := 0; i < n; i++ {
		m := BuildJaccardMacro(net, ds.At(i), l, int32(i))
		setBits[i] = m.SetBits
	}
	sim := automata.MustSimulator(net)
	reports := sim.Run(BuildStream(queries, l))
	queryBits := []int{queries[0].PopCount(), queries[1].PopCount()}
	decoded, err := DecodeJaccardReports(reports, l, len(queries), setBits, queryBits)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		if len(decoded[qi]) != n {
			t.Fatalf("query %d: %d results, want %d", qi, len(decoded[qi]), n)
		}
		for _, r := range decoded[qi] {
			want := JaccardSimilarity(ds.At(r.ID), q)
			if math.Abs(r.Similarity-want) > 1e-12 {
				t.Errorf("query %d vector %d: similarity %v, reference %v", qi, r.ID, r.Similarity, want)
			}
		}
		// Sorted by descending similarity.
		for i := 1; i < len(decoded[qi]); i++ {
			if decoded[qi][i].Similarity > decoded[qi][i-1].Similarity {
				t.Errorf("query %d: results out of order at %d", qi, i)
			}
		}
	}
}

func TestJaccardSimilarityReference(t *testing.T) {
	a, _ := bitvec.ParseBits("1100")
	b, _ := bitvec.ParseBits("1010")
	// intersection 1, union 3.
	if got := JaccardSimilarity(a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("Jaccard = %v, want 1/3", got)
	}
	z := bitvec.New(4)
	if got := JaccardSimilarity(z, z); got != 1 {
		t.Errorf("Jaccard of empty sets = %v, want 1", got)
	}
}

func TestJaccardMacroSmallerForSparseVectors(t *testing.T) {
	dim := 64
	l := NewLayout(dim)
	sparse := bitvec.New(dim)
	sparse.Set(3, true)
	netSparse := automata.NewNetwork()
	BuildJaccardMacro(netSparse, sparse, l, 0)
	dense := bitvec.New(dim)
	for i := 0; i < dim; i++ {
		dense.Set(i, true)
	}
	netDense := automata.NewNetwork()
	BuildJaccardMacro(netDense, dense, l, 0)
	if netSparse.Stats().STEs >= netDense.Stats().STEs {
		t.Errorf("sparse macro (%d STEs) not smaller than dense (%d)",
			netSparse.Stats().STEs, netDense.Stats().STEs)
	}
}

// ---- NewApproxEngine (§VI-C end to end) ----

func TestApproxEngineSubsetOfExactAndHonest(t *testing.T) {
	rng := stats.NewRNG(7070)
	const dim, n, numQ, k = 16, 64, 6, 2
	ds := bitvec.RandomDataset(rng, n, dim)
	queries := make([]bitvec.Vector, numQ)
	for i := range queries {
		queries[i] = bitvec.Random(rng, dim)
	}
	board := ap.NewBoard(ap.Gen2())
	eng, err := NewApproxEngine(board, ds, EngineOptions{Capacity: 32}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Partitions() != 2 {
		t.Fatalf("partitions = %d, want 2", eng.Partitions())
	}
	got, err := eng.Query(queries, k)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := knn.ScanBatch(context.Background(), ds, queries, k, knn.ScanConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	recallSum := 0.0
	for qi := range queries {
		// Distances must be honest for every returned neighbor.
		for _, nb := range got[qi] {
			if nb.Dist != ds.Hamming(nb.ID, queries[qi]) {
				t.Errorf("query %d: dishonest distance for vector %d", qi, nb.ID)
			}
		}
		hits := 0
		ids := map[int]bool{}
		for _, nb := range got[qi] {
			ids[nb.ID] = true
		}
		for _, nb := range exact[qi] {
			if ids[nb.ID] {
				hits++
			}
		}
		recallSum += float64(hits) / float64(len(exact[qi]))
	}
	// Faithful hardware suppression at kPrime=2 keeps the top-2 almost
	// always (Table VI addendum: ~0% incorrect).
	if avg := recallSum / numQ; avg < 0.9 {
		t.Errorf("average recall = %v, want >= 0.9", avg)
	}
}

func TestApproxEngineReducesReports(t *testing.T) {
	rng := stats.NewRNG(8080)
	const dim, n, k = 16, 64, 2
	ds := bitvec.RandomDataset(rng, n, dim)
	queries := []bitvec.Vector{bitvec.Random(rng, dim)}

	exactBoard := ap.NewBoard(ap.Gen2())
	exactEng, err := NewEngine(exactBoard, ds, EngineOptions{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exactEng.Query(queries, k); err != nil {
		t.Fatal(err)
	}

	approxBoard := ap.NewBoard(ap.Gen2())
	approxEng, err := NewApproxEngine(approxBoard, ds, EngineOptions{Capacity: 64}, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := approxEng.Query(queries, k); err != nil {
		t.Fatal(err)
	}

	full := exactBoard.ReportsEmitted()
	reduced := approxBoard.ReportsEmitted()
	if full != n {
		t.Fatalf("exact engine emitted %d reports, want %d", full, n)
	}
	if reduced >= full/2 {
		t.Errorf("reduction engine delivered %d of %d reports; want < half (paper's p/k' reduction)",
			reduced, full)
	}
}

func TestApproxEngineValidation(t *testing.T) {
	rng := stats.NewRNG(11)
	ds := bitvec.RandomDataset(rng, 8, 8)
	board := ap.NewBoard(ap.Gen2())
	if _, err := NewApproxEngine(board, ds, EngineOptions{}, 1, 2); err == nil {
		t.Error("group size 1 accepted")
	}
	if _, err := NewApproxEngine(board, ds, EngineOptions{}, 4, 0); err == nil {
		t.Error("kPrime 0 accepted")
	}
}
