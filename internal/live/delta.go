// Package live implements the mutable index layer: a small, exactly-scanned
// delta segment of recent inserts and a tombstone set of deletes stacked on
// top of a compiled base index, with a background compactor that folds the
// churn back into a fresh base compilation. The delta segment is one
// contiguous slab (a bitvec.Dataset), appended to under the writer lock and
// published to searches as a Slice snapshot, which a search's delta scan
// streams whole: one knn.ScanBlock call per query.
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

import "repro/internal/bitvec"

// delta is the delta segment: the vectors inserted since the base was
// compiled, entry i holding global ID firstID+i, packed in one contiguous
// slab. The engine keeps one as its store, appended to under the writer
// lock, and publishes snapshots of it in views, which are only read. A
// snapshot is a Slice(0, n) of the store and stays valid as the store grows:
// Append writes only past the dataset's end, and a reallocation leaves the
// old array as it was.
type delta struct {
	*bitvec.Dataset
	firstID int
}

func newDelta(dim, firstID int) delta { return delta{bitvec.NewDataset(dim), firstID} }

// nextID returns the global ID the next append takes.
func (d delta) nextID() int { return d.firstID + d.Len() }

// snapshot returns a view of the current entries that later appends leave
// as it is. Callers must hold the engine writer lock.
func (d delta) snapshot() delta { return delta{d.Slice(0, d.Len()), d.firstID} }
