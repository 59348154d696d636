package fpga

import (
	"context"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/stats"
)

func TestSearchMatchesCPU(t *testing.T) {
	rng := stats.NewRNG(11)
	ds := bitvec.RandomDataset(rng, 200, 64)
	queries := make([]bitvec.Vector, 37) // ragged final batch
	for i := range queries {
		queries[i] = bitvec.Random(rng, 64)
	}
	acc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := acc.Search(context.Background(), ds, queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		want := knn.Linear(ds, q, 5)
		if len(res.Neighbors[qi]) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(res.Neighbors[qi]), len(want))
		}
		for j := range want {
			if res.Neighbors[qi][j] != want[j] {
				t.Errorf("query %d rank %d: fpga %v, cpu %v", qi, j, res.Neighbors[qi][j], want[j])
			}
		}
	}
	if res.Cycles <= 0 || res.Time <= 0 {
		t.Errorf("cycle model produced %d cycles, %v", res.Cycles, res.Time)
	}
}

func TestModelTimeMatchesPaperScale(t *testing.T) {
	acc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table III Kintex-7: 1.89 ms for WordEmbed-small; model within 2x.
	got := acc.ModelTime(1024, 64, 4096)
	if got < 900*time.Microsecond || got > 4*time.Millisecond {
		t.Errorf("ModelTime = %v, paper reports 1.89ms", got)
	}
	// Large: 1.85 s.
	got = acc.ModelTime(1<<20, 64, 4096)
	if got < 900*time.Millisecond || got > 4*time.Second {
		t.Errorf("large ModelTime = %v, paper reports 1.85s", got)
	}
}

func TestModelTimeScalesWithDim(t *testing.T) {
	acc, _ := New(DefaultConfig())
	t64 := acc.ModelTime(1<<20, 64, 4096)
	t256 := acc.ModelTime(1<<20, 256, 4096)
	ratio := t256.Seconds() / t64.Seconds()
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("d=256/d=64 time ratio = %v, want ~4 (streamed bits)", ratio)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	acc, _ := New(DefaultConfig())
	rng := stats.NewRNG(1)
	ds := bitvec.RandomDataset(rng, 4, 32)
	if _, err := acc.Search(context.Background(), ds, []bitvec.Vector{bitvec.Random(rng, 32)}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := acc.Search(context.Background(), ds, []bitvec.Vector{bitvec.Random(rng, 64)}, 1); err == nil {
		t.Error("dim mismatch accepted")
	}
}

// TestSearchTieBreakMatchesExact forces heavy distance ties — 8-bit codes
// over 300 vectors guarantee many duplicates — and requires every lane to
// deliver exactly the CPU scan's (distance, ID) order. A ragged final batch
// is included.
func TestSearchTieBreakMatchesExact(t *testing.T) {
	rng := stats.NewRNG(13)
	ds := bitvec.RandomDataset(rng, 300, 8)
	queries := make([]bitvec.Vector, 21) // ragged: 16-lane batch + 5
	for i := range queries {
		queries[i] = bitvec.Random(rng, 8)
	}
	acc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := acc.Search(context.Background(), ds, queries, 12)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		want := knn.Linear(ds, q, 12)
		if len(res.Neighbors[qi]) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(res.Neighbors[qi]), len(want))
		}
		for j := range want {
			if res.Neighbors[qi][j] != want[j] {
				t.Errorf("query %d rank %d: fpga %v, exact %v", qi, j, res.Neighbors[qi][j], want[j])
			}
		}
	}
}

func TestSearchCanceled(t *testing.T) {
	rng := stats.NewRNG(14)
	ds := bitvec.RandomDataset(rng, 64, 16)
	acc, _ := New(DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := acc.Search(ctx, ds, []bitvec.Vector{bitvec.Random(rng, 16)}, 2); err == nil {
		t.Error("canceled context accepted")
	}
}
