package bitvec_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/stats"
)

func snapshotBytes(t *testing.T, ds *bitvec.Dataset, m *bitvec.Manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := bitvec.WriteSnapshot(&buf, ds, m); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	const n = 40
	var shifted, sparse bitvec.IDMap
	shifted.AppendRange(60, n) // one run, as oldest-first deletes leave it
	for i := 0; i < n; i++ {
		sparse.AppendRange(2*i+1, 1) // ascending, sparse, all < NextID
	}
	for _, tc := range []struct {
		name string
		m    bitvec.Manifest
	}{
		{"identity", bitvec.Manifest{Generation: 3, NextID: 40, IDs: bitvec.Identity(n)}},
		{"shiftedIDs", bitvec.Manifest{Generation: 5, NextID: 100, IDs: shifted}},
		{"explicitIDs", bitvec.Manifest{Generation: 7, NextID: 100, IDs: sparse}},
		{"tombstones", bitvec.Manifest{Generation: 1, NextID: 64, IDs: bitvec.Identity(n), Tombstones: []int{2, 17, 63}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := bitvec.RandomDataset(stats.NewRNG(5), n, 70)
			m := tc.m
			data := snapshotBytes(t, ds, &m)
			got, gm, err := bitvec.ReadSnapshot(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ReadSnapshot: %v", err)
			}
			if got.Len() != ds.Len() || got.Dim() != ds.Dim() {
				t.Fatalf("geometry %dx%d, want %dx%d", got.Len(), got.Dim(), ds.Len(), ds.Dim())
			}
			for i := 0; i < ds.Len(); i++ {
				if !got.At(i).Equal(ds.At(i)) {
					t.Fatalf("vector %d differs after round trip", i)
				}
			}
			if gm.Generation != m.Generation || gm.NextID != m.NextID {
				t.Fatalf("manifest (%d,%d), want (%d,%d)", gm.Generation, gm.NextID, m.Generation, m.NextID)
			}
			if gm.IDs.Len() != m.IDs.Len() || gm.IDs.Runs() != m.IDs.Runs() {
				t.Fatalf("got %d ids in %d runs, want %d in %d", gm.IDs.Len(), gm.IDs.Runs(), m.IDs.Len(), m.IDs.Runs())
			}
			for i := 0; i < m.IDs.Len(); i++ {
				if gm.IDs.ID(i) != m.IDs.ID(i) {
					t.Fatalf("id[%d] = %d, want %d", i, gm.IDs.ID(i), m.IDs.ID(i))
				}
			}
			if len(gm.Tombstones) != len(m.Tombstones) {
				t.Fatalf("got %d tombstones, want %d", len(gm.Tombstones), len(m.Tombstones))
			}
			for i, id := range m.Tombstones {
				if gm.Tombstones[i] != id {
					t.Fatalf("tombstone[%d] = %d, want %d", i, gm.Tombstones[i], id)
				}
			}
		})
	}
}

// TestSnapshotErrors walks the corruption taxonomy: every malformed input
// must surface the matching typed sentinel, never a panic or short read.
func TestSnapshotErrors(t *testing.T) {
	ds := bitvec.RandomDataset(stats.NewRNG(4), 12, 70)
	good := snapshotBytes(t, ds, &bitvec.Manifest{Generation: 1, NextID: 20, IDs: bitvec.Identity(ds.Len()), Tombstones: []int{3, 9}})
	var shifted bitvec.IDMap
	shifted.AppendRange(1, ds.Len())
	explicit := snapshotBytes(t, ds, &bitvec.Manifest{Generation: 1, NextID: 20, IDs: shifted})

	mutate := func(f func([]byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	mutateExplicit := func(f func([]byte) []byte) []byte {
		return f(append([]byte(nil), explicit...))
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, aperr.ErrTruncated},
		{"truncatedHeader", good[:10], aperr.ErrTruncated},
		{"truncatedManifest", good[:25], aperr.ErrTruncated},
		{"truncatedPayload", good[:len(good)-5], aperr.ErrTruncated},
		{"badMagic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), aperr.ErrBadFormat},
		{"datasetVersion", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], 1)
			return b
		}), aperr.ErrBadFormat},
		{"futureVersion", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], 99)
			return b
		}), aperr.ErrBadFormat},
		{"zeroDim", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 0)
			return b
		}), aperr.ErrBadFormat},
		{"watermarkBelowCount", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[28:36], 5) // NextID < n
			return b
		}), aperr.ErrBadFormat},
		{"badIDsFlag", mutate(func(b []byte) []byte { b[36] = 7; return b }), aperr.ErrBadFormat},
		{"tombstoneBeyondWatermark", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[45:53], 21) // first tombstone >= NextID
			return b
		}), aperr.ErrBadFormat},
		{"tombstonesOutOfOrder", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[45:53], 9)
			binary.LittleEndian.PutUint64(b[53:61], 3)
			return b
		}), aperr.ErrBadFormat},
		{"dirtyTailBits", mutate(func(b []byte) []byte {
			b[len(b)-1] |= 0x80 // dim 70: bits 70..127 of the last word must be zero
			return b
		}), aperr.ErrBadFormat},
		{"truncatedIDList", explicit[:37+8*5], aperr.ErrTruncated},
		{"idsOutOfOrder", mutateExplicit(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[37:45], 5) // above the second id, 2
			return b
		}), aperr.ErrBadFormat},
		{"explicitIdentityList", mutateExplicit(func(b []byte) []byte {
			for i := 0; i < 12; i++ {
				binary.LittleEndian.PutUint64(b[37+8*i:], uint64(i)) // the identity belongs in the flag
			}
			return b
		}), aperr.ErrBadFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := bitvec.ReadSnapshot(bytes.NewReader(tc.data))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want errors.Is(..., %v)", err, tc.want)
			}
		})
	}
}

func TestSnapshotIDCountMismatchRejected(t *testing.T) {
	ds := bitvec.RandomDataset(stats.NewRNG(2), 8, 64)
	var three bitvec.IDMap
	three.AppendRange(1, 3)
	// The zero map maps no vector; it does not stand for the identity.
	for _, ids := range []bitvec.IDMap{three, {}} {
		var buf bytes.Buffer
		_, err := bitvec.WriteSnapshot(&buf, ds, &bitvec.Manifest{NextID: 100, IDs: ids})
		if !errors.Is(err, aperr.ErrBadFormat) {
			t.Fatalf("%d ids for %d vectors: got %v, want ErrBadFormat", ids.Len(), ds.Len(), err)
		}
	}
}

// TestSnapshotAndDatasetBytesGolden pins the bytes WriteTo and WriteSnapshot
// produce to the sha256 they have always had: a payload several write
// chunks long, and a manifest of each ID shape — the identity flag, a
// shifted range and a sparse list, expanded from their runs — so a change
// to how the files are written cannot change what is written.
func TestSnapshotAndDatasetBytesGolden(t *testing.T) {
	ds := bitvec.RandomDataset(stats.NewRNG(29), 9000, 130)
	var shifted, sparse bitvec.IDMap
	shifted.AppendRange(3000, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		sparse.AppendRange(2*i+1, 1)
	}
	for _, tc := range []struct {
		name string
		m    *bitvec.Manifest // nil: the version-1 dataset format
		want string
	}{
		{"dataset", nil, "c49408cbcec00c6d20a7b923a571406368b789d6b712812588adc510c9a736f8"},
		{"identity", &bitvec.Manifest{Generation: 4, NextID: 9000, IDs: bitvec.Identity(ds.Len())},
			"661b0b9dedbf6d4a6f46ab6c4fdba4b52e6383883198251640d49adac093b5d2"},
		{"shifted", &bitvec.Manifest{Generation: 5, NextID: 12001, IDs: shifted},
			"45fda569385884f2f988b09cf493dbb184648ee40f6bd75061d4a947c2cd861a"},
		{"sparse", &bitvec.Manifest{Generation: 6, NextID: 18001, IDs: sparse, Tombstones: []int{0, 2, 17998}},
			"525a1542fbe9a5ab1e18225c534363c13fb3a21db76f891c9ee41400df53089d"},
	} {
		var buf bytes.Buffer
		var err error
		if tc.m == nil {
			_, err = ds.WriteTo(&buf)
		} else {
			_, err = bitvec.WriteSnapshot(&buf, ds, tc.m)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestReadDatasetErrors covers the same taxonomy for the version-1 dataset
// reader: truncated header, truncated payload, wrong magic, wrong version —
// each a typed sentinel, never a panic or silent short read.
func TestReadDatasetErrors(t *testing.T) {
	ds := bitvec.RandomDataset(stats.NewRNG(6), 10, 70)
	var w bytes.Buffer
	if _, err := ds.WriteTo(&w); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	good := w.Bytes()

	mutate := func(f func([]byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, aperr.ErrTruncated},
		{"truncatedHeader", good[:7], aperr.ErrTruncated},
		{"headerOnly", good[:20], aperr.ErrTruncated},
		{"truncatedPayload", good[:len(good)-3], aperr.ErrTruncated},
		{"badMagic", mutate(func(b []byte) []byte { copy(b, "NOPE"); return b }), aperr.ErrBadFormat},
		{"snapshotVersion", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], 2)
			return b
		}), aperr.ErrBadFormat},
		{"zeroDim", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 0)
			return b
		}), aperr.ErrBadFormat},
		{"hugeDim", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 1<<21)
			return b
		}), aperr.ErrBadFormat},
		{"countOverflow", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[12:20], ^uint64(0))
			return b
		}), aperr.ErrBadFormat},
		{"dirtyTailBits", mutate(func(b []byte) []byte {
			b[len(b)-1] |= 0x80
			return b
		}), aperr.ErrBadFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := bitvec.ReadDataset(bytes.NewReader(tc.data))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want errors.Is(..., %v)", err, tc.want)
			}
		})
	}
}
