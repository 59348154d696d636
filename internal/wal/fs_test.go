package wal

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// TestWriteFileSnapshotRoundTrip publishes a snapshot through the OS seam and
// reads it back: the manifest survives, and no .tmp is left beside it.
func TestWriteFileSnapshotRoundTrip(t *testing.T) {
	ds := bitvec.RandomDataset(stats.NewRNG(9), 33, 64)
	m := &bitvec.Manifest{Generation: 2, NextID: 50, IDs: bitvec.Identity(ds.Len())}
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.apds")
	if err := WriteFile(OS, path, func(w io.Writer) error {
		_, err := bitvec.WriteSnapshot(w, ds, m)
		return err
	}); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	var got *bitvec.Dataset
	var gm *bitvec.Manifest
	if err := ReadFile(OS, path, func(r io.Reader) (err error) {
		got, gm, err = bitvec.ReadSnapshot(r)
		return err
	}); err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Len() != ds.Len() || gm.NextID != 50 || gm.Generation != 2 {
		t.Fatalf("recovered %d vectors, manifest (%d,%d)", got.Len(), gm.Generation, gm.NextID)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the snapshot", len(entries))
	}
}
