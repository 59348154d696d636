package gpu

import (
	"context"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/stats"
)

func TestSearchMatchesCPU(t *testing.T) {
	rng := stats.NewRNG(5)
	ds := bitvec.RandomDataset(rng, 150, 64)
	queries := make([]bitvec.Vector, 11)
	for i := range queries {
		queries[i] = bitvec.Random(rng, 64)
	}
	dev, err := New(TegraK1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := dev.Search(context.Background(), ds, queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := knn.ScanBatch(context.Background(), ds, queries, 4, knn.ScanConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		for j := range want[qi] {
			if res.Neighbors[qi][j] != want[qi][j] {
				t.Errorf("query %d rank %d: gpu %v, cpu %v", qi, j, res.Neighbors[qi][j], want[qi][j])
			}
		}
	}
}

func TestModelTimeMatchesPaper(t *testing.T) {
	tk1, _ := New(TegraK1())
	// Table III: 125.80 ms, WordEmbed small.
	got := tk1.ModelTime(1024, 4096)
	if got < 100*time.Millisecond || got > 170*time.Millisecond {
		t.Errorf("TK1 small = %v, paper 125.8ms", got)
	}
	// Table IV: ~16 s large, flat across dimensionality.
	got = tk1.ModelTime(1<<20, 4096)
	if got < 12*time.Second || got > 22*time.Second {
		t.Errorf("TK1 large = %v, paper ~16s", got)
	}
	titan, _ := New(TitanX())
	got = titan.ModelTime(1<<20, 4096)
	if got < 700*time.Millisecond || got > 1500*time.Millisecond {
		t.Errorf("Titan X large = %v, paper ~1s", got)
	}
}

func TestTitanFasterThanTegra(t *testing.T) {
	tk1, _ := New(TegraK1())
	titan, _ := New(TitanX())
	if titan.ModelTime(1<<20, 4096) >= tk1.ModelTime(1<<20, 4096) {
		t.Error("Titan X should beat Tegra K1")
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	dev, _ := New(TitanX())
	rng := stats.NewRNG(1)
	if _, err := dev.Search(context.Background(), bitvec.RandomDataset(rng, 4, 16), []bitvec.Vector{bitvec.Random(rng, 16)}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := dev.Search(context.Background(), bitvec.RandomDataset(rng, 4, 16), []bitvec.Vector{bitvec.Random(rng, 32)}, 1); err == nil {
		t.Error("dim mismatch accepted")
	}
}

// TestSearchTieBreakMatchesExact forces heavy distance ties — 8-bit codes
// over 300 vectors guarantee many duplicates — and requires the GPU model's
// results to be byte-identical to the exact CPU scan, including the shared
// (distance, ID) tie-break order. knn.ScanBatch is the scan behind the public
// ExactSearch reference.
func TestSearchTieBreakMatchesExact(t *testing.T) {
	rng := stats.NewRNG(7)
	ds := bitvec.RandomDataset(rng, 300, 8)
	queries := make([]bitvec.Vector, 9)
	for i := range queries {
		queries[i] = bitvec.Random(rng, 8)
	}
	for _, cfg := range []Config{TegraK1(), TitanX()} {
		dev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dev.Search(context.Background(), ds, queries, 12)
		if err != nil {
			t.Fatal(err)
		}
		want, err := knn.ScanBatch(context.Background(), ds, queries, 12, knn.ScanConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for qi := range queries {
			if len(res.Neighbors[qi]) != len(want[qi]) {
				t.Fatalf("%s query %d: %d results, want %d", cfg.Name, qi, len(res.Neighbors[qi]), len(want[qi]))
			}
			for j := range want[qi] {
				if res.Neighbors[qi][j] != want[qi][j] {
					t.Errorf("%s query %d rank %d: gpu %v, exact %v", cfg.Name, qi, j, res.Neighbors[qi][j], want[qi][j])
				}
			}
		}
	}
}

func TestSearchCanceled(t *testing.T) {
	rng := stats.NewRNG(8)
	ds := bitvec.RandomDataset(rng, 64, 16)
	dev, _ := New(TitanX())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dev.Search(ctx, ds, []bitvec.Vector{bitvec.Random(rng, 16)}, 2); err == nil {
		t.Error("canceled context accepted")
	}
}
