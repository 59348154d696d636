// Package live implements the mutable index layer: a small, exactly-scanned
// delta segment of recent inserts and a tombstone set of deletes stacked on
// top of a compiled base index, with a background compactor that folds the
// churn back into a fresh base compilation.
//
// The paper's performance model charges a full symbol-replacement sweep per
// dataset change (§III-C): on a real Automata Processor every insert or
// delete would pay a board reconfiguration. The same amortization that the
// serving layer applies to query streams — batch many small events into one
// reconfiguration — applies to dataset churn: mutations land in host memory
// immediately (delta appends, tombstone marks) and the reconfiguration is
// paid once per compaction instead of once per mutation. Searches merge
// base and delta results through the shared (Dist, ID) tie-break, so
// results stay byte-identical to an exact scan of the current live set.
//
// Tombstones are two bitsets, over base positions and over delta entries,
// and they are applied where candidates are scored: the delta scan's heap
// refuses dead entries (knn.TopK.Exclude), and the base is handed its set
// (apstats.ExcludingSearcher, which every base must be) and leaves them out
// itself — at the kernel's heap, where the simulated ap boards' reports are
// decoded, or in an approximate index's bucket scan. A search asks the base
// for k and nothing more, so pending deletes cost it nothing. The delta
// scan's heap starts bounded by the base's k-th neighbor (knn.TopK.Seed),
// so it gathers only the entries that displace one, and a delta that adds
// nothing leaves the base's list as it is.
//
// A compiled base knows its vectors by position; their global IDs are a
// run-length map (bitvec.IDMap) of ascending runs, each a stretch of
// positions holding consecutive IDs. The seed is one run, and so is the
// contiguous range a compaction keeps after oldest-first deletes, so a node
// holds its vectors at their packed size plus O(runs) of metadata rather
// than one int per vector. Snapshots write the map as the format's explicit
// ID list and read it back into runs.
package live

import (
	"fmt"

	"repro/internal/bitvec"
)

// deltaChunkVecs is the number of vectors per delta chunk. Chunks are
// allocated at full size and never reallocated, which is what makes a
// published snapshot stable under concurrent appends.
const deltaChunkVecs = 256

// delta is the append-only store behind the delta segment. Appends must be
// serialized by the caller (the engine's writer lock); snapshots taken
// between appends are stable forever. Unlike bitvec.Dataset — whose Append
// may reallocate the storage an earlier At aliases — a delta chunk is
// allocated at its final size up front, so a reader holding a snapshot
// never observes a torn or moved vector.
type delta struct {
	dim     int
	wordsPV int
	firstID int // global ID of entry 0
	chunks  [][]uint64
	n       int
}

func newDelta(dim, firstID int) *delta {
	if dim <= 0 {
		panic(fmt.Sprintf("live: non-positive dimensionality %d", dim))
	}
	return &delta{dim: dim, wordsPV: bitvec.WordsFor(dim), firstID: firstID}
}

// append adds a vector and returns its global ID. Callers must hold the
// engine writer lock; the words are fully written before any snapshot that
// includes the new entry is published.
func (d *delta) append(v bitvec.Vector) int {
	if v.Dim() != d.dim {
		panic(fmt.Sprintf("live: delta dim %d, vector dim %d", d.dim, v.Dim()))
	}
	chunk, off := d.n/deltaChunkVecs, d.n%deltaChunkVecs
	if chunk == len(d.chunks) {
		d.chunks = append(d.chunks, make([]uint64, deltaChunkVecs*d.wordsPV))
	}
	copy(d.chunks[chunk][off*d.wordsPV:(off+1)*d.wordsPV], v.Words())
	id := d.firstID + d.n
	d.n++
	return id
}

// snapshot publishes the current visible prefix. The returned view is an
// immutable value: later appends write only into chunk positions beyond its
// length (or into chunks its header slice does not reference).
func (d *delta) snapshot() deltaView {
	return deltaView{
		dim:     d.dim,
		wordsPV: d.wordsPV,
		firstID: d.firstID,
		chunks:  d.chunks[:len(d.chunks):len(d.chunks)],
		n:       d.n,
	}
}

// deltaView is a stable point-in-time snapshot of the delta segment. The
// zero value is an empty segment.
type deltaView struct {
	dim     int
	wordsPV int
	firstID int
	chunks  [][]uint64
	n       int
}

// Len returns the number of visible entries (tombstoned ones included).
func (v deltaView) Len() int { return v.n }

// FirstID returns the global ID of entry 0; entry i has ID FirstID()+i.
func (v deltaView) FirstID() int { return v.firstID }

// words returns the packed words of entry i for the scan kernel. The slice
// aliases chunk storage, which is immutable for indexes below Len.
func (v deltaView) words(i int) []uint64 {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("live: delta index %d out of range [0,%d)", i, v.n))
	}
	chunk, off := i/deltaChunkVecs, i%deltaChunkVecs
	return v.chunks[chunk][off*v.wordsPV : (off+1)*v.wordsPV]
}

// chunkCount returns the number of chunks holding visible entries.
func (v deltaView) chunkCount() int {
	return (v.n + deltaChunkVecs - 1) / deltaChunkVecs
}

// chunkWords returns chunk c's packed words trimmed to visible entries plus
// the number of vectors it holds — one contiguous block for the scan kernel.
// Chunk storage below the snapshot length is immutable, so the slab is
// stable no matter how many appends land after the snapshot.
func (v deltaView) chunkWords(c int) ([]uint64, int) {
	n := v.n - c*deltaChunkVecs
	if n > deltaChunkVecs {
		n = deltaChunkVecs
	}
	return v.chunks[c][:n*v.wordsPV], n
}

// vector returns a copy of entry i — copy-on-read, so callers can hold it
// across compactions without aliasing the store.
func (v deltaView) vector(i int) bitvec.Vector {
	return bitvec.FromWords(v.dim, v.words(i))
}
