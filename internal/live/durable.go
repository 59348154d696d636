package live

import (
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/aperr"
	"repro/internal/apstats"
	"repro/internal/bitvec"
	"repro/internal/wal"
)

// Durability: the live index optionally owns a directory of generation-paired
// files — snap-<gen>.apds (an APDS v2 snapshot with manifest) and
// wal-<gen>.log (the write-ahead log of every mutation since that snapshot).
// Every acknowledged Insert/Delete is appended to the log before it is
// published to readers; every compaction writes a fresh snapshot and rotates
// the log, so the replay tail stays bounded by the compaction threshold.
// Recovery loads the newest complete pair and replays the log over it,
// reconstructing the exact pre-crash live view: identical global IDs,
// identical NextID watermark, byte-identical search results.
//
// Crash windows and why the pairing rule survives them:
//
//   - during snapshot write: the snapshot lands at a .tmp name; the previous
//     pair is untouched and authoritative.
//   - between snapshot rename and log rotation: snap-G exists without wal-G
//     (an orphan). Every record acknowledged so far is still in wal-(G-1),
//     so recovery prefers the older *complete* pair. An orphan is trusted
//     only when no complete pair exists anywhere — the first-open window,
//     where no mutation has ever been acknowledged.
//   - after log rotation: wal-G was assembled at a .tmp name (header, barrier,
//     the churn that landed mid-compile) and renamed into place, so a wal that
//     exists is never a torn prefix of itself; pair G is authoritative.
//   - mid-append: the torn final record is detected by its CRC and truncated
//     away on replay; only the unacknowledged tail is lost.
//
// Every file goes through one wal.FS (wal.OS outside tests), so each of these
// windows, and each failed write, fsync, rename or directory sync, is a call
// a test can fail or crash at. A failed append or fsync refuses the mutation
// and every later one until reopen (wal.Log's sticky error); a failed
// compaction leaves the previous pair authoritative and the index writable.

// DurableOptions configures the durability directory of an Index.
type DurableOptions struct {
	// Dir is the directory holding the snapshot and log generations.
	Dir string
	// Policy selects when WAL appends reach stable storage (default
	// wal.SyncAlways).
	Policy wal.SyncPolicy
	// SyncInterval is the flush period under wal.SyncInterval (default
	// 100ms; ignored for the other policies).
	SyncInterval time.Duration
}

// DefaultSyncInterval is the flush period wal.SyncInterval uses when
// DurableOptions doesn't say otherwise.
const DefaultSyncInterval = 100 * time.Millisecond

// RecoveryInfo reports what NewDurable reconstructed from the directory.
type RecoveryInfo struct {
	// Recovered is false on a first open (empty directory, seed dataset used).
	Recovered bool
	// Generation of the snapshot the index resumed from.
	Generation int64
	// SnapshotVectors is the vector count of the loaded snapshot.
	SnapshotVectors int
	// ReplayedRecords is the number of WAL records applied over the snapshot.
	ReplayedRecords int
	// ReplayedBytes is the valid record bytes replayed.
	ReplayedBytes int64
	// Torn reports that the log ended in a partial or corrupt record that was
	// truncated away — the expected shape of a crash mid-append.
	Torn bool
}

// durState is the per-index durability bookkeeping behind DurStats.
type durState struct {
	fs      wal.FS
	dir     string
	policy  wal.SyncPolicy
	info    RecoveryInfo
	snapGen atomic.Int64
	// snapUnixNano is when the current snapshot generation was written (or
	// loaded, after recovery) — the freshness behind snapshotAge.
	snapUnixNano atomic.Int64
}

// snapName and walName name one generation's file pair. The zero-padded
// decimal keeps lexical and numeric order identical.
func snapName(gen int64) string { return fmt.Sprintf("snap-%016d.apds", gen) }
func walName(gen int64) string  { return fmt.Sprintf("wal-%016d.log", gen) }

// parseGen inverts snapName/walName; ok is false for foreign files.
func parseGen(name, prefix, suffix string) (int64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	gen, err := strconv.ParseInt(mid, 10, 64)
	if err != nil || gen < 0 || len(mid) != 16 {
		return 0, false
	}
	return gen, true
}

// NewDurable opens (or creates) a durable live index rooted at d.Dir. An
// empty directory seeds generation 0 from ds, exactly as New would, and
// persists it before returning; a directory with prior state recovers from
// its newest complete snapshot/log pair — ds is then only checked for
// dimensional agreement (it may be nil). The returned RecoveryInfo says
// which path was taken.
func NewDurable(ds *bitvec.Dataset, compile CompileFunc, opts Options, d DurableOptions) (*Index, RecoveryInfo, error) {
	return openDurable(wal.OS, ds, compile, opts, d)
}

// openDurable is NewDurable on fsys.
func openDurable(fsys wal.FS, ds *bitvec.Dataset, compile CompileFunc, opts Options, d DurableOptions) (*Index, RecoveryInfo, error) {
	if d.Dir == "" {
		return nil, RecoveryInfo{}, fmt.Errorf("live: durable open needs a directory: %w", aperr.ErrBadFormat)
	}
	if err := fsys.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("live: durable dir: %w", err)
	}
	gen, walExists, err := newestState(fsys, d.Dir)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	if gen < 0 {
		return firstOpen(fsys, ds, compile, opts, d)
	}
	return openExisting(fsys, ds, compile, opts, d, gen, walExists)
}

// newestState picks the recovery generation: the newest gen with both files,
// else the newest orphan snapshot, else -1 for an empty directory.
func newestState(fsys wal.FS, dir string) (gen int64, walExists bool, err error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return -1, false, fmt.Errorf("live: scan durable dir: %w", err)
	}
	snaps := map[int64]bool{}
	wals := map[int64]bool{}
	for _, name := range names {
		if g, ok := parseGen(name, "snap-", ".apds"); ok {
			snaps[g] = true
		}
		if g, ok := parseGen(name, "wal-", ".log"); ok {
			wals[g] = true
		}
	}
	best, orphan := int64(-1), int64(-1)
	for g := range snaps {
		if wals[g] {
			if g > best {
				best = g
			}
		} else if g > orphan {
			orphan = g
		}
	}
	if best >= 0 {
		return best, true, nil
	}
	return orphan, false, nil
}

// firstOpen seeds generation 0 from ds and persists it: snapshot first, then
// the log — so a crash between the two leaves an orphan snapshot that the
// recovery rule accepts (no mutation can have been acknowledged yet).
func firstOpen(fsys wal.FS, ds *bitvec.Dataset, compile CompileFunc, opts Options, d DurableOptions) (*Index, RecoveryInfo, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, RecoveryInfo{}, fmt.Errorf("live: %w", aperr.ErrEmptyDataset)
	}
	base, err := compile(ds)
	if err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("live: compile base: %w", err)
	}
	ids := bitvec.Identity(ds.Len())
	m := &bitvec.Manifest{Generation: 0, NextID: ds.Len(), IDs: ids}
	if err := writeSnapshot(fsys, filepath.Join(d.Dir, snapName(0)), ds, m); err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("live: write seed snapshot: %w", err)
	}
	lg, err := wal.CreateWith(filepath.Join(d.Dir, walName(0)), ds.Dim(), wal.Options{Policy: d.Policy, FS: fsys},
		[]wal.Record{{Type: wal.RecBarrier, Gen: 0, NextID: ds.Len()}})
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	x := newIndex(&baseGen{searcher: base, ds: ds, ids: ids}, newDelta(ds.Dim(), ds.Len()), tombs{}, compile, opts)
	info := RecoveryInfo{Generation: 0, SnapshotVectors: ds.Len()}
	x.attachDurable(fsys, lg, d, info)
	x.start()
	return x, info, nil
}

// openExisting recovers from snapshot generation gen: compile the snapshot
// dataset as the base, replay the paired log over it (or create a fresh log
// when the pair is an orphan), and resume with the exact pre-crash state.
func openExisting(fsys wal.FS, ds *bitvec.Dataset, compile CompileFunc, opts Options, d DurableOptions, gen int64, walExists bool) (*Index, RecoveryInfo, error) {
	var snapDS *bitvec.Dataset
	var m *bitvec.Manifest
	err := wal.ReadFile(fsys, filepath.Join(d.Dir, snapName(gen)), func(r io.Reader) (err error) {
		snapDS, m, err = bitvec.ReadSnapshot(r)
		return err
	})
	if err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("live: load snapshot gen %d: %w", gen, err)
	}
	if m.Generation != gen {
		return nil, RecoveryInfo{}, fmt.Errorf("live: snapshot file gen %d holds manifest gen %d: %w", gen, m.Generation, aperr.ErrBadFormat)
	}
	if ds != nil && ds.Dim() != snapDS.Dim() {
		return nil, RecoveryInfo{}, fmt.Errorf("live: seed dim %d, durable state dim %d: %w", ds.Dim(), snapDS.Dim(), aperr.ErrDimMismatch)
	}
	dim := snapDS.Dim()
	var base *baseGen
	if snapDS.Len() > 0 {
		searcher, err := compile(snapDS)
		if err != nil {
			return nil, RecoveryInfo{}, fmt.Errorf("live: compile recovered base: %w", err)
		}
		base = &baseGen{searcher: searcher, ds: snapDS, ids: m.IDs}
	}
	store := newDelta(dim, m.NextID)
	var dead tombs
	for _, id := range m.Tombstones {
		if err := dead.replayDelete(base, store, id); err != nil {
			return nil, RecoveryInfo{}, fmt.Errorf("live: snapshot gen %d tombstones: %w", gen, err)
		}
	}
	info := RecoveryInfo{Recovered: true, Generation: gen, SnapshotVectors: snapDS.Len()}
	var lg *wal.Log
	walOpts := wal.Options{Policy: d.Policy, FS: fsys}
	if walExists {
		first := true
		var rep wal.Replay
		lg, rep, err = wal.Open(filepath.Join(d.Dir, walName(gen)), dim, walOpts, func(r wal.Record) error {
			if first {
				first = false
				if r.Type != wal.RecBarrier || r.Gen != gen || r.NextID != m.NextID {
					return fmt.Errorf("live: log gen %d barrier (%d,%d) disagrees with manifest (%d,%d): %w",
						gen, r.Gen, r.NextID, gen, m.NextID, aperr.ErrBadFormat)
				}
				return nil
			}
			return applyRecord(r, dim, base, store, &dead)
		})
		if err != nil {
			return nil, RecoveryInfo{}, fmt.Errorf("live: replay gen %d: %w", gen, err)
		}
		info.ReplayedRecords = rep.Records
		info.ReplayedBytes = rep.Bytes
		info.Torn = rep.Torn
	} else {
		// Orphan snapshot: the crash hit between the snapshot rename and the
		// log rotation of a first open, before any mutation was acknowledged.
		// Materialize the missing log.
		lg, err = wal.CreateWith(filepath.Join(d.Dir, walName(gen)), dim, walOpts,
			[]wal.Record{{Type: wal.RecBarrier, Gen: gen, NextID: m.NextID}})
		if err != nil {
			return nil, RecoveryInfo{}, err
		}
	}
	x := newIndex(base, store, dead, compile, opts)
	x.generation.Store(gen)
	x.attachDurable(fsys, lg, d, info)
	// Stale generations — older pairs superseded by this one, or a newer
	// orphan snapshot whose rotation never completed — are dead weight now.
	removeOtherGens(fsys, d.Dir, gen)
	x.start()
	return x, info, nil
}

// applyRecord replays one mutation record into the recovery state, enforcing
// the invariants the appender maintained: insert IDs are exactly sequential,
// deletes name a live vector, barriers appear only at the head.
func applyRecord(r wal.Record, dim int, base *baseGen, store delta, dead *tombs) error {
	switch r.Type {
	case wal.RecInsert:
		if want := store.nextID(); r.ID != want {
			return fmt.Errorf("live: replay insert id %d, want %d: %w", r.ID, want, aperr.ErrBadFormat)
		}
		store.Append(bitvec.FromWords(dim, r.Words))
		return nil
	case wal.RecDelete:
		return dead.replayDelete(base, store, r.ID)
	case wal.RecBarrier:
		return fmt.Errorf("live: barrier after head of log: %w", aperr.ErrBadFormat)
	default:
		return fmt.Errorf("live: replay record type %d: %w", r.Type, aperr.ErrBadFormat)
	}
}

// replayDelete tombstones id in the sets recovery is building, refusing what
// Delete would have refused.
func (t *tombs) replayDelete(base *baseGen, store delta, id int) error {
	inBase, pos, dead, found := t.locate(base, store.firstID, store.Len(), id)
	switch {
	case dead:
		return fmt.Errorf("live: replay double delete %d: %w", id, aperr.ErrBadFormat)
	case !found:
		return fmt.Errorf("live: replay delete of unknown id %d: %w", id, aperr.ErrBadFormat)
	case inBase:
		t.baseDead.add(pos, base.size())
	default:
		t.deltaDead.add(pos, store.Len())
	}
	return nil
}

// writeSnapshot publishes ds and its manifest as the snapshot file at path
// (wal.WriteFile: a .tmp, fsynced, renamed, the directory fsynced).
func writeSnapshot(fsys wal.FS, path string, ds *bitvec.Dataset, m *bitvec.Manifest) error {
	return wal.WriteFile(fsys, path, func(w io.Writer) error {
		_, err := bitvec.WriteSnapshot(w, ds, m)
		return err
	})
}

// removeOtherGens deletes every generation file except gen's pair, plus any
// stranded .tmp files. Best-effort: a leftover is storage waste, not a
// correctness hazard, so failures are ignored.
func removeOtherGens(fsys wal.FS, dir string, gen int64) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, name := range names {
		keep := name == snapName(gen) || name == walName(gen)
		g, isSnap := parseGen(name, "snap-", ".apds")
		g2, isWal := parseGen(name, "wal-", ".log")
		stale := (isSnap && g != gen) || (isWal && g2 != gen) || filepath.Ext(name) == ".tmp"
		if stale && !keep {
			fsys.Remove(filepath.Join(dir, name))
		}
	}
}

// attachDurable hands the index its WAL and bookkeeping. Called before start.
func (x *Index) attachDurable(fsys wal.FS, lg *wal.Log, d DurableOptions, info RecoveryInfo) {
	x.wal = lg
	x.dur = &durState{fs: fsys, dir: d.Dir, policy: d.Policy, info: info}
	x.dur.snapGen.Store(info.Generation)
	x.dur.snapUnixNano.Store(time.Now().UnixNano())
	m := &x.metrics
	m.CounterFunc("apknn_wal_appends_total", "Records appended to the current write-ahead log",
		func() int64 { return x.walStats().Appends })
	m.CounterFunc("apknn_wal_appended_bytes_total", "Record bytes appended to the current write-ahead log",
		func() int64 { return x.walStats().Bytes })
	m.CounterFunc("apknn_wal_fsyncs_total", "Fsync calls issued on the current write-ahead log",
		func() int64 { return x.walStats().Fsyncs })
	m.Gauge("apknn_wal_size_bytes", "Write-ahead log length a crash right now would replay",
		func() float64 { return float64(x.walStats().Size) })
	m.Gauge("apknn_wal_snapshot_age_seconds", "Age of the newest on-disk snapshot",
		func() float64 { return x.snapshotAge().Seconds() })
	if d.Policy == wal.SyncInterval {
		interval := d.SyncInterval
		if interval <= 0 {
			interval = DefaultSyncInterval
		}
		x.wg.Add(1)
		go x.syncLoop(interval)
	}
}

// syncLoop is the wal.SyncInterval flusher: acknowledged mutations reach
// stable storage at least once per interval.
func (x *Index) syncLoop(interval time.Duration) {
	defer x.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-x.closed:
			return
		case <-t.C:
			x.mu.Lock()
			l := x.wal
			x.mu.Unlock()
			if l == nil {
				continue
			}
			// A failed Sync poisons the log, so the next write returns its
			// error; a log rotated away and closed mid-tick is not a
			// failure, the rotation synced it.
			_ = l.Sync()
		}
	}
}

// walStats snapshots the current log's counters, zero once Close released it.
func (x *Index) walStats() wal.Stats {
	x.mu.Lock()
	l := x.wal
	x.mu.Unlock()
	if l == nil {
		return wal.Stats{}
	}
	return l.Stats()
}

func (x *Index) snapshotAge() time.Duration {
	return time.Duration(time.Now().UnixNano() - x.dur.snapUnixNano.Load())
}

// DurStats snapshots the durability counters; nil for an index opened
// without a durability directory.
func (x *Index) DurStats() *apstats.DurabilityStats {
	if x.dur == nil {
		return nil
	}
	ws := x.walStats()
	return &apstats.DurabilityStats{
		Dir:                x.dur.dir,
		Fsync:              x.dur.policy.String(),
		Appends:            ws.Appends,
		AppendedBytes:      ws.Bytes,
		Fsyncs:             ws.Fsyncs,
		WALSize:            ws.Size,
		Recovered:          x.dur.info.Recovered,
		ReplayedRecords:    int64(x.dur.info.ReplayedRecords),
		ReplayedBytes:      x.dur.info.ReplayedBytes,
		ReplayTorn:         x.dur.info.Torn,
		SnapshotGeneration: x.dur.snapGen.Load(),
		SnapshotAge:        x.snapshotAge(),
	}
}

// rotateDurable is the log half of a durable compaction, called under x.mu
// at the swap point. It publishes the new generation's log — barrier, then
// the churn that landed mid-compile (the same inserts and tombstones the new
// view carries) — and switches the index over to it. The old log is
// returned for the caller to close outside the lock.
func (x *Index) rotateDurable(newGen int64, snap, cur *view, tombstones []int) (*wal.Log, error) {
	head := make([]wal.Record, 0, 1+cur.delta.Len()-snap.delta.Len()+len(tombstones))
	head = append(head, wal.Record{Type: wal.RecBarrier, Gen: newGen, NextID: snap.nextID})
	for i := snap.delta.Len(); i < cur.delta.Len(); i++ {
		head = append(head, wal.Record{Type: wal.RecInsert, ID: cur.delta.firstID + i, Words: cur.delta.WordsAt(i)})
	}
	for _, id := range tombstones {
		head = append(head, wal.Record{Type: wal.RecDelete, ID: id})
	}
	newLog, err := x.wal.Rotate(filepath.Join(x.dur.dir, walName(newGen)), head)
	if err != nil {
		return nil, err
	}
	old := x.wal
	x.wal = newLog
	return old, nil
}

// finishDurable is the post-swap cleanup of a durable compaction: close the
// rotated-away log, drop superseded generations, refresh the age stamp.
func (x *Index) finishDurable(newGen int64, old *wal.Log) {
	if old != nil {
		old.Close()
	}
	removeOtherGens(x.dur.fs, x.dur.dir, newGen)
	x.dur.snapGen.Store(newGen)
	x.dur.snapUnixNano.Store(time.Now().UnixNano())
}
