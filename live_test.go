package apknn_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	apknn "repro"
)

// TestOpenLiveBackendEquivalence runs the same churn script on a live
// index over each exact backend and asserts byte-identical results against
// the exact scan of a mirrored dataset — the OpenLive counterpart of
// TestBackendEquivalence.
func TestOpenLiveBackendEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []apknn.BackendKind{apknn.AP, apknn.Fast, apknn.Sharded, apknn.CPU, apknn.GPU, apknn.FPGA} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			const n0, dim, k = 300, 32, 6
			ds := apknn.RandomDataset(31, n0, dim)
			idx, err := apknn.OpenLive(ds,
				apknn.WithBackend(kind),
				apknn.WithCapacity(64),
				apknn.WithCompactThreshold(-1)) // compaction driven explicitly below
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()

			// Churn: 30 inserts, delete every third seed vector of the
			// first 30, and one inserted vector.
			inserts := apknn.RandomQueries(32, 30, dim)
			insertIDs := make([]int, len(inserts))
			for i, v := range inserts {
				if insertIDs[i], err = idx.Insert(ctx, v); err != nil {
					t.Fatal(err)
				}
			}
			deleted := map[int]bool{}
			for id := 0; id < 30; id += 3 {
				if err := idx.Delete(ctx, id); err != nil {
					t.Fatal(err)
				}
				deleted[id] = true
			}
			if err := idx.Delete(ctx, insertIDs[5]); err != nil {
				t.Fatal(err)
			}
			deleted[insertIDs[5]] = true

			check := func(stage string) {
				t.Helper()
				mirror := apknn.RandomDataset(1, 0, dim)
				var gids []int
				for i := 0; i < n0; i++ {
					if !deleted[i] {
						mirror.Append(ds.At(i))
						gids = append(gids, i)
					}
				}
				for j, v := range inserts {
					if !deleted[insertIDs[j]] {
						mirror.Append(v)
						gids = append(gids, insertIDs[j])
					}
				}
				queries := apknn.RandomQueries(33, 8, dim)
				exact := apknn.ExactSearch(mirror, queries, k, 2)
				got, err := idx.Search(ctx, queries, k)
				if err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				for qi := range queries {
					if len(got[qi]) != len(exact[qi]) {
						t.Fatalf("%s query %d: %d results, want %d", stage, qi, len(got[qi]), len(exact[qi]))
					}
					for j := range got[qi] {
						want := apknn.Neighbor{ID: gids[exact[qi][j].ID], Dist: exact[qi][j].Dist}
						if got[qi][j] != want {
							t.Fatalf("%s query %d rank %d: got %v, want %v", stage, qi, j, got[qi][j], want)
						}
					}
				}
			}
			check("pre-compact")
			if err := idx.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			check("post-compact")
			st := idx.Stats()
			if st.Live == nil {
				t.Fatal("Stats missing Live block")
			}
			if st.Live.Compactions != 1 || st.Live.DeltaSize != 0 || st.Live.Tombstones != 0 {
				t.Fatalf("post-compact live stats: %+v", st.Live)
			}
			if st.Live.Inserts != 30 || st.Live.Deletes != 11 {
				t.Fatalf("churn counters: %+v", st.Live)
			}
			if boards := kind == apknn.AP || kind == apknn.Fast || kind == apknn.Sharded; boards && st.Live.ReconfigTime <= 0 {
				t.Fatalf("%s compaction charged no reconfiguration time", kind)
			}
			if idx.ModeledTime() <= 0 {
				t.Fatal("live index modeled no time")
			}
		})
	}
}

// TestOpenLiveSearchBatch checks that each Search on a live index is one
// batch: one result list per query, and one batch counted per call.
func TestOpenLiveSearchBatch(t *testing.T) {
	ds := apknn.RandomDataset(41, 200, 32)
	idx, err := apknn.OpenLive(ds, apknn.WithBackend(apknn.Fast))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	ctx := context.Background()
	if _, err := idx.Insert(ctx, apknn.RandomQueries(42, 1, 32)[0]); err != nil {
		t.Fatal(err)
	}
	batches := [][]apknn.Vector{
		apknn.RandomQueries(43, 3, 32),
		apknn.RandomQueries(44, 2, 32),
	}
	for i, qs := range batches {
		res, err := idx.Search(ctx, qs, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(qs) {
			t.Fatalf("batch %d: %d results", i, len(res))
		}
	}
	st := idx.Stats()
	if st.Queries != 5 || st.Batches != 2 {
		t.Fatalf("counters after batches: queries=%d batches=%d", st.Queries, st.Batches)
	}
}

// TestOpenLiveErrors pins the public sentinel surface.
func TestOpenLiveErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := apknn.OpenLive(nil); !errors.Is(err, apknn.ErrEmptyDataset) {
		t.Errorf("nil dataset: %v", err)
	}
	if _, err := apknn.OpenLive(apknn.RandomDataset(1, 8, 16), apknn.WithBackend("nope")); !errors.Is(err, apknn.ErrUnknownBackend) {
		t.Errorf("unknown backend: %v", err)
	}
	idx, err := apknn.OpenLive(apknn.RandomDataset(1, 8, 16), apknn.WithBackend(apknn.Fast))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.Delete(ctx, 123); !errors.Is(err, apknn.ErrNotFound) {
		t.Errorf("delete unknown: %v", err)
	}
	if _, err := idx.Search(ctx, apknn.RandomQueries(2, 1, 16), -1); !errors.Is(err, apknn.ErrBadK) {
		t.Errorf("bad k: %v", err)
	}
}

// TestDatasetRoundTrip exercises the binary dataset format: writer-to-
// reader in memory, file save/load, and the reject paths.
func TestDatasetRoundTrip(t *testing.T) {
	for _, dim := range []int{16, 64, 100} {
		ds := apknn.RandomDataset(uint64(dim), 77, dim)
		var buf bytes.Buffer
		if _, err := ds.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := apknn.ReadDataset(&buf)
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		if back.Len() != ds.Len() || back.Dim() != ds.Dim() {
			t.Fatalf("dim %d: round-trip shape %dx%d", dim, back.Len(), back.Dim())
		}
		for i := 0; i < ds.Len(); i++ {
			if !back.At(i).Equal(ds.At(i)) {
				t.Fatalf("dim %d: vector %d differs", dim, i)
			}
		}
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "ds.apds")
	ds := apknn.RandomDataset(9, 50, 24)
	if err := apknn.SaveDataset(ds, path); err != nil {
		t.Fatal(err)
	}
	back, err := apknn.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 50 || back.Dim() != 24 {
		t.Fatalf("file round-trip shape %dx%d", back.Len(), back.Dim())
	}
	// A loaded dataset must be servable and mutable.
	idx, err := apknn.OpenLive(back, apknn.WithBackend(apknn.Fast))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	q := back.At(7).Clone()
	res, err := idx.Search(context.Background(), []apknn.Vector{q}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0][0].ID != 7 || res[0][0].Dist != 0 {
		t.Fatalf("loaded dataset search = %v", res[0])
	}

	// Reject paths: truncation, bad magic.
	if err := os.WriteFile(path, []byte("JUNKJUNKJUNK"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := apknn.LoadDataset(path); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	if _, err := ds.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := apknn.ReadDataset(bytes.NewReader(buf.Bytes()[:buf.Len()-5])); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// A hostile header claiming a petabyte-scale count must fail with a
	// clean truncation error, not attempt the allocation.
	hostile := make([]byte, 20)
	copy(hostile, "APDS")
	hostile[4] = 1                                       // version
	hostile[8] = 64                                      // dim
	binary.LittleEndian.PutUint64(hostile[12:20], 1<<50) // n
	if _, err := apknn.ReadDataset(bytes.NewReader(hostile)); err == nil {
		t.Fatal("hostile count accepted")
	}
}

// TestOpenLiveStatsJSONShape ensures the wire-visible stats marshal with
// the documented field names.
func TestOpenLiveStatsJSONShape(t *testing.T) {
	idx, err := apknn.OpenLive(apknn.RandomDataset(3, 64, 16), apknn.WithBackend(apknn.Fast))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if _, err := idx.Insert(context.Background(), apknn.RandomQueries(4, 1, 16)[0]); err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	if st.Live == nil || st.Live.DeltaSize != 1 || st.Live.BaseSize != 64 {
		t.Fatalf("live stats: %+v", st.Live)
	}
	out := fmt.Sprintf("%+v", st.Live)
	if out == "" {
		t.Fatal("unprintable stats")
	}
}

// TestLiveCandidatesScannedSurvivesCompaction: the candidate-pair counter
// spans the index's life. It used to be read off the current base
// generation alone, so every compaction set it back to zero and a rate over
// a phase with compactions in it came out nonsense.
func TestLiveCandidatesScannedSurvivesCompaction(t *testing.T) {
	ctx := context.Background()
	const n0, dim, k, nq = 300, 64, 4, 4
	idx, err := apknn.OpenLive(apknn.RandomDataset(41, n0, dim),
		apknn.WithBackend(apknn.CPU),
		apknn.WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	queries := apknn.RandomQueries(42, nq, dim)
	var want int64
	step := func(stage string, base, delta int, compact bool) {
		t.Helper()
		if compact {
			if err := idx.Compact(ctx); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := idx.Search(ctx, queries, k); err != nil {
				t.Fatal(err)
			}
			want += int64(base+delta) * nq
		}
		if got := idx.Stats().CandidatesScanned; got != want {
			t.Fatalf("%s: CandidatesScanned = %d, want %d", stage, got, want)
		}
	}
	step("seed search", n0, 0, false)
	for _, v := range apknn.RandomQueries(43, 10, dim) {
		if _, err := idx.Insert(ctx, v); err != nil {
			t.Fatal(err)
		}
	}
	step("base + delta search", n0, 10, false)
	step("first compaction", 0, 0, true)
	step("generation 1 search", n0+10, 0, false)
	if err := idx.Delete(ctx, 7); err != nil {
		t.Fatal(err)
	}
	step("second compaction", 0, 0, true)
	step("generation 2 search", n0+9, 0, false)
}
