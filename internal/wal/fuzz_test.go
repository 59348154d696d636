package wal_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/wal/memfs"
)

// FuzzWALReplay opens a log whose valid header is followed by arbitrary
// bytes. Open may refuse it; if it does not, nothing panics, the replay is
// torn exactly when bytes remain past the replayed prefix, the file is cut
// to that prefix, appending the replayed records to a fresh log writes the
// prefix again byte for byte, and a second Open replays the same records
// without a torn tail.
func FuzzWALReplay(f *testing.F) {
	const seedDim = 70
	rng := stats.NewRNG(9)
	var seed []wal.Record
	for i := 0; i < 3; i++ {
		seed = append(seed, wal.InsertRecord(10+i, bitvec.Random(rng, seedDim)), wal.Record{Type: wal.RecDelete, ID: 10 + i})
	}
	seed = append(seed, wal.Record{Type: wal.RecBarrier, Gen: 2, NextID: 13})
	valid := logTail(f, seedDim, seed)
	f.Add(uint8(seedDim-1), valid)
	f.Add(uint8(seedDim-1), valid[:len(valid)-1])                     // torn payload
	f.Add(uint8(seedDim-1), append(valid[:len(valid):len(valid)], 3)) // torn header
	f.Add(uint8(seedDim-1), []byte{})
	f.Add(uint8(0), []byte{9, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, dimRaw uint8, tail []byte) {
		dim := 1 + int(dimRaw)%130
		m := memfs.New()
		if err := m.MkdirAll("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		header := readAll(t, m, createLog(t, m, "/d/header.log", dim, nil))
		data := append(header[:len(header):len(header)], tail...)
		if err := wal.WriteFile(m, "/d/x.log", func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		}); err != nil {
			t.Fatal(err)
		}

		recs, rep, err := replay(m, "/d/x.log", dim)
		if err != nil {
			return
		}
		if rep.Records != len(recs) || rep.Bytes < 0 || rep.Bytes > int64(len(tail)) {
			t.Fatalf("replay %+v of %d records over a %d-byte tail", rep, len(recs), len(tail))
		}
		if rep.Torn != (int64(len(tail)) > rep.Bytes) {
			t.Fatalf("torn=%v with %d of %d tail bytes replayed", rep.Torn, rep.Bytes, len(tail))
		}
		prefix := data[:len(header)+int(rep.Bytes)]
		if got := readAll(t, m, "/d/x.log"); !bytes.Equal(got, prefix) {
			t.Fatalf("file holds %d bytes after Open, want the %d-byte replayed prefix", len(got), len(prefix))
		}
		if got := readAll(t, m, createLog(t, m, "/d/again.log", dim, recs)); !bytes.Equal(got, prefix) {
			t.Fatalf("re-appending the %d replayed records wrote %d bytes, not the %d-byte prefix", len(recs), len(got), len(prefix))
		}
		again, rep2, err := replay(m, "/d/x.log", dim)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		if rep2.Torn || rep2.Bytes != rep.Bytes || len(again) != len(recs) {
			t.Fatalf("second open replayed %+v, the first %+v", rep2, rep)
		}
		for i := range recs {
			if !sameRecord(again[i], recs[i]) {
				t.Fatalf("second open record %d = %+v, first %+v", i, again[i], recs[i])
			}
		}
	})
}

// replay opens path, collects the records it replays and closes it again.
func replay(fsys wal.FS, path string, dim int) ([]wal.Record, wal.Replay, error) {
	var recs []wal.Record
	l, rep, err := wal.Open(path, dim, wal.Options{FS: fsys, Policy: wal.SyncNever}, func(r wal.Record) error {
		r.Words = append([]uint64(nil), r.Words...)
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, wal.Replay{}, err
	}
	return recs, rep, l.Close()
}

// createLog writes a fresh log of recs at path and returns the path.
func createLog(tb testing.TB, fsys wal.FS, path string, dim int, recs []wal.Record) string {
	tb.Helper()
	l, err := wal.Create(path, dim, wal.Options{FS: fsys, Policy: wal.SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

func readAll(tb testing.TB, fsys wal.FS, path string) []byte {
	tb.Helper()
	var b []byte
	if err := wal.ReadFile(fsys, path, func(r io.Reader) (err error) {
		b, err = io.ReadAll(r)
		return err
	}); err != nil {
		tb.Fatal(err)
	}
	return b
}

// logTail is the record bytes a log of recs holds after its header.
func logTail(tb testing.TB, dim int, recs []wal.Record) []byte {
	tb.Helper()
	m := memfs.New()
	if err := m.MkdirAll("/d", 0o755); err != nil {
		tb.Fatal(err)
	}
	empty := readAll(tb, m, createLog(tb, m, "/d/empty.log", dim, nil))
	return readAll(tb, m, createLog(tb, m, "/d/full.log", dim, recs))[len(empty):]
}
