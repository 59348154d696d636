package apknn_test

import (
	"context"
	"strings"
	"testing"

	apknn "repro"
)

func TestOpenMatchesExact(t *testing.T) {
	ds := apknn.RandomDataset(1, 80, 32)
	queries := apknn.RandomQueries(2, 5, 32)
	for _, kind := range []apknn.BackendKind{apknn.AP, apknn.Fast} {
		idx, err := apknn.Open(ds, apknn.WithBackend(kind), apknn.WithCapacity(30))
		if err != nil {
			t.Fatal(err)
		}
		if p := idx.Stats().Partitions; p != 3 {
			t.Fatalf("partitions = %d, want 3", p)
		}
		got, err := idx.Search(context.Background(), queries, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := apknn.ExactSearch(ds, queries, 4, 2)
		for qi := range queries {
			for j := range want[qi] {
				if got[qi][j] != want[qi][j] {
					t.Errorf("backend=%s query %d rank %d: %v vs %v", kind, qi, j, got[qi][j], want[qi][j])
				}
			}
			if r := apknn.Recall(got[qi], want[qi]); r != 1 {
				t.Errorf("recall = %v, want 1", r)
			}
		}
	}
}

// TestExactSearchBadKPanicsOnCaller: ExactSearch with k <= 0 panics on the
// calling goroutine, where this recover catches it, whatever the worker
// count. A panic inside a scan worker would take the test binary down.
func TestExactSearchBadKPanicsOnCaller(t *testing.T) {
	ds := apknn.RandomDataset(5, 5000, 64)
	queries := apknn.RandomQueries(6, 2, 64)
	for _, k := range []int{0, -1} {
		for _, workers := range []int{0, 1, 4} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "apknn.ExactSearch") || !strings.Contains(msg, apknn.ErrBadK.Error()) {
						t.Errorf("ExactSearch(k=%d, workers=%d) recovered %q, want an ExactSearch panic naming ErrBadK", k, workers, msg)
					}
				}()
				apknn.ExactSearch(ds, queries, k, workers)
			}()
		}
	}
}

func TestOpenModeledTime(t *testing.T) {
	ds := apknn.RandomDataset(3, 40, 16)
	idx, err := apknn.Open(ds, apknn.WithGeneration(apknn.Gen1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Search(context.Background(), apknn.RandomQueries(4, 2, 16), 1); err != nil {
		t.Fatal(err)
	}
	if idx.ModeledTime() <= 0 {
		t.Error("modeled time not accumulated")
	}
}

func TestQuantizePipeline(t *testing.T) {
	// End to end: floats -> ITQ -> binary dataset -> index.
	training := make([][]float64, 0, 60)
	for c := 0; c < 3; c++ {
		for i := 0; i < 20; i++ {
			v := make([]float64, 16)
			for j := range v {
				v[j] = float64(c*7) + float64(i%5)*0.1 + float64(j%3)
			}
			training = append(training, v)
		}
	}
	ds, itq, err := apknn.QuantizeITQ(training, training, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 60 || ds.Dim() != 8 {
		t.Fatalf("encoded dataset %dx%d", ds.Len(), ds.Dim())
	}
	if itq.Bits() != 8 {
		t.Errorf("Bits = %d", itq.Bits())
	}
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Fast))
	if err != nil {
		t.Fatal(err)
	}
	q := itq.Encode(training[0])
	res, err := idx.Search(context.Background(), []apknn.Vector{q}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 3 || res[0][0].Dist != 0 {
		t.Errorf("self-query results = %v", res[0])
	}
}

func TestParseVector(t *testing.T) {
	v, err := apknn.ParseVector("1011")
	if err != nil || v.Dim() != 4 || !v.Bit(0) || v.Bit(1) {
		t.Errorf("ParseVector = %v, %v", v, err)
	}
	if _, err := apknn.ParseVector("10x"); err == nil {
		t.Error("bad vector accepted")
	}
}

func TestGenerationString(t *testing.T) {
	if apknn.Gen1.String() != "AP Gen 1" || apknn.Gen2.String() != "AP Gen 2" {
		t.Error("Generation.String wrong")
	}
}
