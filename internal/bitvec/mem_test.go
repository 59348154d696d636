//go:build !race

package bitvec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/aperr"
)

// The memory budgets are compiled out under -race, like the allocation
// budgets, which also keeps the million-vector load out of the slow race
// run.

// heapAllocated returns the bytes fn allocates on the heap.
func heapAllocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// apdsBlob returns a version-1 header claiming count vectors of dim bits,
// followed by payloadWords words of payload.
func apdsBlob(dim int, count uint64, payloadWords int) []byte {
	b := make([]byte, headerLen, headerLen+8*payloadWords)
	copy(b, DatasetMagic)
	binary.LittleEndian.PutUint32(b[4:8], datasetVersion)
	binary.LittleEndian.PutUint32(b[8:12], uint32(dim))
	binary.LittleEndian.PutUint64(b[12:20], count)
	for i := 0; i < payloadWords; i++ {
		b = binary.LittleEndian.AppendUint64(b, uint64(i)*0x9E3779B97F4A7C15)
	}
	return b
}

// TestReadDatasetMemBudget: loading 1M x 128 leaves exactly the packed slab
// (len == cap) and allocates at most 2.1x the payload on the way — the
// doubling slab and one read buffer. Appending a word at a time allocated
// 103 MB for this 16.8 MB payload.
func TestReadDatasetMemBudget(t *testing.T) {
	const n, dim = 1 << 20, 128
	blob := apdsBlob(dim, n, n*WordsFor(dim))
	payload := float64(len(blob) - headerLen)
	var ds *Dataset
	var err error
	alloc := heapAllocated(func() { ds, err = ReadDataset(bytes.NewReader(blob)) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ReadDataset %dx%d: %.1f MB payload, %.1f MB allocated (%.2fx), slab len %d cap %d",
		n, dim, payload/1e6, float64(alloc)/1e6, float64(alloc)/payload, len(ds.words), cap(ds.words))
	if len(ds.words) != cap(ds.words) {
		t.Errorf("slab len %d, cap %d: the load kept growth slack", len(ds.words), cap(ds.words))
	}
	if float64(alloc) > 2.1*payload {
		t.Errorf("allocated %d bytes for a %.0f-byte payload, over the 2.1x budget", alloc, payload)
	}
}

// TestReadHostileCountMemBudget: a header claiming 2^40 vectors over 1 MB of
// payload fails with ErrTruncated, in both readers, after allocating at most
// 2.1x the bytes it read — the cost of the bytes that exist, not of the ones
// the header claims.
func TestReadHostileCountMemBudget(t *testing.T) {
	const dim, claimed, payloadWords = 128, 1 << 40, 1 << 17
	v1 := apdsBlob(dim, claimed, payloadWords)
	v2 := apdsBlob(dim, claimed, 0)
	binary.LittleEndian.PutUint32(v2[4:8], snapshotVersion)
	v2 = binary.LittleEndian.AppendUint64(v2, 0)       // generation
	v2 = binary.LittleEndian.AppendUint64(v2, claimed) // NextID
	v2 = append(v2, 0)                                 // identity IDs
	v2 = binary.LittleEndian.AppendUint64(v2, 0)       // no tombstones
	v2 = append(v2, v1[headerLen:]...)
	for _, tc := range []struct {
		name string
		blob []byte
		read func([]byte) error
	}{
		{"ReadDataset", v1, func(b []byte) error { _, err := ReadDataset(bytes.NewReader(b)); return err }},
		{"ReadSnapshot", v2, func(b []byte) error { _, _, err := ReadSnapshot(bytes.NewReader(b)); return err }},
	} {
		var err error
		alloc := heapAllocated(func() { err = tc.read(tc.blob) })
		t.Logf("%s: %d bytes read, %d allocated (%.2fx)", tc.name, len(tc.blob), alloc, float64(alloc)/float64(len(tc.blob)))
		if !errors.Is(err, aperr.ErrTruncated) {
			t.Errorf("%s: got %v, want ErrTruncated", tc.name, err)
		}
		if float64(alloc) > 2.1*float64(len(tc.blob)) {
			t.Errorf("%s: allocated %d bytes after reading %d, over the 2.1x budget", tc.name, alloc, len(tc.blob))
		}
	}
}
