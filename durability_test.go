package apknn_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	apknn "repro"
	"repro/internal/wal/memfs"
)

// TestOpenLiveDurableRoundTrip drives the public durability surface end to
// end: open with WithDurability, churn, close, reopen the same directory
// with a nil seed, and require the recovered index to report recovery,
// resume the ID space, and answer byte-identical searches — the exact
// top-k of the surviving vectors. It runs over the fast substrate, whose
// kernel refuses the tombstones at its heap, and over the simulated ap
// board, whose host drops their reports as it decodes them.
func TestOpenLiveDurableRoundTrip(t *testing.T) {
	for _, kind := range []apknn.BackendKind{apknn.Fast, apknn.AP} {
		t.Run(string(kind), func(t *testing.T) { durableRoundTrip(t, kind) })
	}
}

func durableRoundTrip(t *testing.T, kind apknn.BackendKind) {
	ctx := context.Background()
	dir := t.TempDir()
	const n0, dim, k = 120, 64, 5
	ds := apknn.RandomDataset(71, n0, dim)
	queries := apknn.RandomQueries(72, 6, dim)

	idx, err := apknn.OpenLive(ds,
		apknn.WithBackend(kind),
		apknn.WithCapacity(32),
		apknn.WithCompactThreshold(-1),
		apknn.WithDurability(dir, apknn.DurabilityOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx.Recovery(); !ok {
		t.Fatal("durable index reports no recovery info")
	}
	inserts := apknn.RandomQueries(73, 25, dim)
	for _, v := range inserts {
		if _, err := idx.Insert(ctx, v); err != nil {
			t.Fatal(err)
		}
	}
	// The survivors under their global IDs: the seed without the deleted
	// IDs, then the inserts.
	survivors := apknn.RandomDataset(1, 0, dim)
	var gids []int
	for id := 0; id < n0; id++ {
		if id >= 20 || id%4 != 0 {
			survivors.Append(ds.At(id))
			gids = append(gids, id)
		}
	}
	for i, v := range inserts {
		survivors.Append(v)
		gids = append(gids, n0+i)
	}
	for id := 0; id < 20; id += 4 {
		if err := idx.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	want, err := idx.Search(ctx, queries, k)
	if err != nil {
		t.Fatal(err)
	}
	for qi, ns := range apknn.ExactSearch(survivors, queries, k, 1) {
		if len(want[qi]) != len(ns) {
			t.Fatalf("query %d: %d results, want %d", qi, len(want[qi]), len(ns))
		}
		for j, n := range ns {
			if n.ID = gids[n.ID]; want[qi][j] != n {
				t.Fatalf("query %d rank %d: %v, want %v", qi, j, want[qi][j], n)
			}
		}
	}
	wantNext, wantLen := idx.NextID(), idx.Len()

	st := idx.Stats()
	if st.Durability == nil {
		t.Fatal("Stats missing Durability block")
	}
	if st.Durability.Dir != dir || st.Durability.Fsync != "always" {
		t.Fatalf("durability stats: %+v", st.Durability)
	}
	// 30 mutations plus the generation barrier the fresh log opens with.
	if st.Durability.Appends != 31 || st.Durability.Recovered {
		t.Fatalf("fresh-dir durability stats: %+v", st.Durability)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed durable index rejects mutations with the public sentinel.
	if _, err := idx.Insert(ctx, inserts[0]); !errors.Is(err, apknn.ErrClosed) {
		t.Fatalf("insert after close: %v", err)
	}

	// Reopen with a nil seed: the directory alone must reconstruct the index.
	back, err := apknn.OpenLive(nil,
		apknn.WithBackend(kind),
		apknn.WithCapacity(32),
		apknn.WithCompactThreshold(-1),
		apknn.WithDurability(dir, apknn.DurabilityOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	rec, ok := back.Recovery()
	if !ok || !rec.Recovered {
		t.Fatalf("recovery info after reopen: %+v ok=%v", rec, ok)
	}
	if rec.ReplayedRecords == 0 {
		t.Fatalf("reopen replayed no records: %+v", rec)
	}
	if back.NextID() != wantNext || back.Len() != wantLen {
		t.Fatalf("recovered shape: next=%d len=%d, want %d/%d",
			back.NextID(), back.Len(), wantNext, wantLen)
	}
	got, err := back.Search(ctx, queries, k)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		for j := range want[qi] {
			if got[qi][j] != want[qi][j] {
				t.Fatalf("query %d rank %d: recovered %v, want %v",
					qi, j, got[qi][j], want[qi][j])
			}
		}
	}
	st = back.Stats()
	if st.Durability == nil || !st.Durability.Recovered || st.Durability.ReplayedRecords == 0 {
		t.Fatalf("recovered durability stats: %+v", st.Durability)
	}
	// The wire shape: durability must marshal under the documented key.
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	var dur map[string]any
	if err := json.Unmarshal(decoded["durability"], &dur); err != nil {
		t.Fatalf("durability block: %v", err)
	}
	for _, field := range []string{"dir", "fsync", "appends", "wal_size",
		"recovered", "replayed_records", "snapshot_generation"} {
		if _, ok := dur[field]; !ok {
			t.Errorf("durability JSON missing %q: %v", field, dur)
		}
	}
}

// TestOpenLiveDurableEmptyDir pins the seed rules: a fresh durable directory
// still requires a seed dataset, and a dimension clash between the seed and
// recovered state surfaces ErrDimMismatch.
func TestOpenLiveDurableEmptyDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := apknn.OpenLive(nil, apknn.WithBackend(apknn.Fast),
		apknn.WithDurability(dir, apknn.DurabilityOptions{})); !errors.Is(err, apknn.ErrEmptyDataset) {
		t.Fatalf("nil seed over empty dir: %v", err)
	}
	idx, err := apknn.OpenLive(apknn.RandomDataset(5, 16, 32), apknn.WithBackend(apknn.Fast),
		apknn.WithDurability(dir, apknn.DurabilityOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := apknn.OpenLive(apknn.RandomDataset(6, 16, 64), apknn.WithBackend(apknn.Fast),
		apknn.WithDurability(dir, apknn.DurabilityOptions{})); !errors.Is(err, apknn.ErrDimMismatch) {
		t.Fatalf("mismatched seed dim over recovered state: %v", err)
	}
}

// TestSaveDatasetMergedView checks LiveIndex.SaveDataset persists the merged
// live view — base plus delta minus tombstones — so the saved file
// round-trips through LoadDataset+Open to the live index's own results
// instead of the stale compiled base.
func TestSaveDatasetMergedView(t *testing.T) {
	ctx := context.Background()
	const n0, dim, k = 90, 48, 4
	ds := apknn.RandomDataset(81, n0, dim)
	idx, err := apknn.OpenLive(ds,
		apknn.WithBackend(apknn.Fast),
		apknn.WithCompactThreshold(-1)) // keep churn pending in the delta
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for _, v := range apknn.RandomQueries(82, 15, dim) {
		if _, err := idx.Insert(ctx, v); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 12; id += 3 {
		if err := idx.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "merged.apds")
	if err := idx.SaveDataset(path); err != nil {
		t.Fatal(err)
	}
	back, err := apknn.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != idx.Len() {
		t.Fatalf("saved %d vectors, live index holds %d", back.Len(), idx.Len())
	}
	reopened, err := apknn.Open(back, apknn.WithBackend(apknn.Fast))
	if err != nil {
		t.Fatal(err)
	}
	queries := apknn.RandomQueries(83, 5, dim)
	want, err := idx.Search(ctx, queries, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.Search(ctx, queries, k)
	if err != nil {
		t.Fatal(err)
	}
	// Global IDs are densely renumbered in the file, so compare distances.
	for qi := range queries {
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got[qi]), len(want[qi]))
		}
		for j := range got[qi] {
			if got[qi][j].Dist != want[qi][j].Dist {
				t.Fatalf("query %d rank %d: saved-view dist %d, live dist %d",
					qi, j, got[qi][j].Dist, want[qi][j].Dist)
			}
		}
	}
}

// TestSaveDatasetFaults saves a dataset over an existing one on the
// in-memory filesystem once per call the save makes: crashing at that call,
// and failing it with every fault of its kind. Afterwards — after a process
// crash and after a power loss — the path must load as the old dataset or
// the new one, and a save that returned an error must have left no .tmp.
func TestSaveDatasetFaults(t *testing.T) {
	const dir, path = "/data", "/data/ds.apds"
	old, next := apknn.RandomDataset(1, 40, 24), apknn.RandomDataset(2, 50, 24)
	encode := func(ds *apknn.Dataset) []byte {
		var b bytes.Buffer
		if _, err := ds.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	oldBytes, nextBytes := encode(old), encode(next)
	// setup returns an image holding old at path, durably, and its call count.
	setup := func() (*memfs.FS, int) {
		m := memfs.New()
		if err := m.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := apknn.SaveDatasetOn(m, old, path); err != nil {
			t.Fatal(err)
		}
		return m, len(m.Calls())
	}
	check := func(m *memfs.FS, label string) {
		t.Helper()
		for _, power := range []bool{false, true} {
			got, err := apknn.LoadDatasetOn(m.Image(power), path)
			if err != nil {
				t.Fatalf("%s, power loss %v: load: %v", label, power, err)
			}
			if b := encode(got); !bytes.Equal(b, oldBytes) && !bytes.Equal(b, nextBytes) {
				t.Fatalf("%s, power loss %v: loaded %d vectors, neither the old dataset nor the new one", label, power, got.Len())
			}
		}
	}
	m, base := setup()
	if err := apknn.SaveDatasetOn(m, next, path); err != nil {
		t.Fatal(err)
	}
	calls := m.Calls()[base:]
	for i, op := range calls {
		n := base + i + 1
		m, _ := setup()
		m.Crash(n)
		if err := apknn.SaveDatasetOn(m, next, path); err == nil {
			t.Fatalf("crash at call %d: save succeeded", n)
		}
		check(m, fmt.Sprintf("crash at call %d", n))
		for _, f := range memfs.Faults {
			if f.Op() != op {
				continue
			}
			m, _ := setup()
			m.Fail(n, f)
			label := fmt.Sprintf("%v at call %d", f, n)
			if err := apknn.SaveDatasetOn(m, next, path); err == nil {
				t.Fatalf("%s: save succeeded", label)
			}
			check(m, label)
			if names, err := m.ReadDir(dir); err != nil || len(names) != 1 {
				t.Fatalf("%s: directory holds %v (%v), want only the dataset", label, names, err)
			}
		}
	}
}

// TestParseFsyncPolicy pins the flag vocabulary.
func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want apknn.FsyncPolicy
	}{
		{"always", apknn.FsyncAlways},
		{"interval", apknn.FsyncInterval},
		{"never", apknn.FsyncNever},
	} {
		got, err := apknn.ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("FsyncPolicy(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := apknn.ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestLoadDatasetTypedErrors pins that the file loaders surface the typed
// format sentinels at the public boundary.
func TestLoadDatasetTypedErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.apds")
	if err := os.WriteFile(path, []byte("NOPE00000000000000000000"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := apknn.LoadDataset(path); !errors.Is(err, apknn.ErrBadFormat) {
		t.Errorf("bad magic: %v", err)
	}
	ds := apknn.RandomDataset(9, 20, 24)
	if err := apknn.SaveDataset(ds, path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := apknn.LoadDataset(path); !errors.Is(err, apknn.ErrTruncated) {
		t.Errorf("truncated payload: %v", err)
	}
}
