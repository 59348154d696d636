package bitvec_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/stats"
)

// FuzzParseBits checks the parsing boundary: arbitrary strings either parse
// into a vector that round-trips exactly through String, or return an error
// — never a panic, never silent truncation.
func FuzzParseBits(f *testing.F) {
	for _, seed := range []string{"1011", "0", "1 0 1 1", "", " ", "10x1", "1111111111111111111111111111111111111111111111111111111111111111110"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := bitvec.ParseBits(s)
		clean := strings.ReplaceAll(s, " ", "")
		if err != nil {
			// Errors are reserved for genuinely malformed input: empty after
			// space-stripping, or a non-bit rune.
			if clean != "" && strings.Trim(clean, "01") == "" {
				t.Fatalf("ParseBits(%q) rejected well-formed input: %v", s, err)
			}
			return
		}
		if strings.Trim(clean, "01") != "" || clean == "" {
			t.Fatalf("ParseBits(%q) accepted malformed input", s)
		}
		if v.Dim() != len(clean) {
			t.Fatalf("ParseBits(%q): dim %d, want %d", s, v.Dim(), len(clean))
		}
		for i := 0; i < v.Dim(); i++ {
			if v.Bit(i) != (clean[i] == '1') {
				t.Fatalf("ParseBits(%q): bit %d = %v", s, i, v.Bit(i))
			}
		}
		// Round-trip: String renders the same bits (grouped with spaces).
		back, err := bitvec.ParseBits(v.String())
		if err != nil {
			t.Fatalf("round-trip ParseBits(String) failed: %v", err)
		}
		if !back.Equal(v) {
			t.Fatalf("round-trip mismatch: %v vs %v", back, v)
		}
	})
}

// FuzzReadDataset hammers the binary dataset header boundary: arbitrary
// bytes either parse into a dataset whose re-serialization reproduces the
// consumed input prefix exactly, or fail with an error — never a panic and
// never a large allocation driven by a hostile header (a corrupt count
// must fail on byte exhaustion, not OOM first).
func FuzzReadDataset(f *testing.F) {
	valid := func(n, dim int) []byte {
		var buf bytes.Buffer
		ds := bitvec.RandomDataset(stats.NewRNG(7), n, dim)
		if _, err := ds.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(valid(3, 16))
	f.Add(valid(1, 64))
	f.Add(valid(2, 70)) // tail mask in play
	f.Add(valid(3, 16)[:10])
	f.Add([]byte("APDS"))
	f.Add([]byte("JPEG then garbage"))
	corrupt := valid(2, 70)
	corrupt[len(corrupt)-1] |= 0x80 // set a bit beyond dim in the last word
	f.Add(corrupt)
	badVersion := valid(3, 16)
	binary.LittleEndian.PutUint32(badVersion[4:8], 2)
	f.Add(badVersion)
	hugeCount := valid(1, 16)
	binary.LittleEndian.PutUint64(hugeCount[12:20], 1<<40) // claims a terabyte
	f.Add(hugeCount)
	zeroDim := valid(1, 16)
	binary.LittleEndian.PutUint32(zeroDim[8:12], 0)
	f.Add(zeroDim)

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := bitvec.ReadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		if ds.Dim() <= 0 || ds.Len() < 0 {
			t.Fatalf("accepted dataset with geometry %dx%d", ds.Len(), ds.Dim())
		}
		// Round-trip: a successfully parsed dataset re-serializes to exactly
		// the bytes that were consumed (trailing junk is not the parser's
		// concern), so parse is the inverse of WriteTo and accepted files
		// are canonical.
		var buf bytes.Buffer
		if _, err := ds.WriteTo(&buf); err != nil {
			t.Fatalf("re-serialize parsed dataset: %v", err)
		}
		if buf.Len() > len(data) || !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("round-trip mismatch: parsed %d vectors x %d bits, re-encoded %d bytes from %d input bytes",
				ds.Len(), ds.Dim(), buf.Len(), len(data))
		}
		// Every vector must be readable without panicking.
		for i := 0; i < ds.Len(); i++ {
			_ = ds.At(i)
		}
	})
}

// FuzzReadSnapshot is FuzzReadDataset for the version-2 reader: arbitrary
// bytes either parse or fail with aperr.ErrBadFormat or aperr.ErrTruncated —
// never a panic, never an untyped error, never an allocation a hostile count
// drives — and whatever parses re-serializes through WriteSnapshot to
// exactly the bytes it consumed, manifest included.
func FuzzReadSnapshot(f *testing.F) {
	ds := bitvec.RandomDataset(stats.NewRNG(7), 3, 70)
	var shifted, sparse bitvec.IDMap
	shifted.AppendRange(5, 3)
	for _, id := range []int{1, 4, 9} {
		sparse.AppendRange(id, 1)
	}
	for _, m := range []bitvec.Manifest{
		{Generation: 1, NextID: 3, IDs: bitvec.Identity(3)},
		{Generation: 2, NextID: 8, IDs: shifted},
		{Generation: 3, NextID: 12, IDs: sparse, Tombstones: []int{0, 10}},
	} {
		var buf bytes.Buffer
		if _, err := bitvec.WriteSnapshot(&buf, ds, &m); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid)
		f.Add(valid[:40])
		hostile := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(hostile[12:20], 1<<40) // claims a terabyte
		binary.LittleEndian.PutUint64(hostile[28:36], 1<<41)
		f.Add(hostile)
	}
	f.Add([]byte("APDS"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, m, err := bitvec.ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, aperr.ErrBadFormat) && !errors.Is(err, aperr.ErrTruncated) {
				t.Fatalf("error outside the typed sentinels: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if _, err := bitvec.WriteSnapshot(&buf, ds, m); err != nil {
			t.Fatalf("re-serialize parsed snapshot: %v", err)
		}
		if buf.Len() > len(data) || !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("round-trip mismatch: parsed %d vectors x %d bits (%d id runs, %d tombstones), re-encoded %d bytes from %d input bytes",
				ds.Len(), ds.Dim(), m.IDs.Runs(), len(m.Tombstones), buf.Len(), len(data))
		}
	})
}
