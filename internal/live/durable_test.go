package live

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/aperr"
	"repro/internal/apstats"
	"repro/internal/bitvec"
	"repro/internal/stats"
	"repro/internal/wal"
)

// mutation is one scripted op of the crash-recovery property tests.
type mutation struct {
	insert bool
	vec    bitvec.Vector // insert payload
	id     int           // delete target / assigned insert ID
	// walSize is the log's byte length after the op was acknowledged: the
	// truncation boundary that separates "survives the crash" from "lost".
	walSize int64
}

// copyFile clones one file byte-for-byte, optionally truncated to limit.
func copyFile(t *testing.T, src, dst string, limit int64) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if limit >= 0 && int64(len(data)) > limit {
		data = data[:limit]
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkState asserts the recovered index matches the mirror exactly: live
// count, NextID watermark, and byte-identical search results at a k that
// covers every live vector.
func checkState(t *testing.T, x *Index, m *mirror, wantNextID int, rng *stats.RNG, label string) {
	t.Helper()
	if got := x.Len(); got != len(m.vecs) {
		t.Fatalf("%s: Len=%d, mirror=%d", label, got, len(m.vecs))
	}
	if got := x.NextID(); got != wantNextID {
		t.Fatalf("%s: NextID=%d, want %d", label, got, wantNextID)
	}
	k := len(m.vecs) + 1
	for i := 0; i < 3; i++ {
		q := bitvec.Random(rng, m.dim)
		res, err := x.Search(context.Background(), []bitvec.Vector{q}, k)
		if err != nil {
			t.Fatalf("%s: search: %v", label, err)
		}
		if want := m.search(q, k); !neighborsEqual(res[0], want) {
			t.Fatalf("%s: search mismatch\n got %v\nwant %v", label, res[0], want)
		}
	}
}

// TestDurableFirstOpenAndReopen is the basic durable lifecycle: seed a fresh
// directory, churn, close cleanly, reopen, and get the identical index back —
// same IDs, same results, and the ID sequence continues where it stopped.
func TestDurableFirstOpenAndReopen(t *testing.T) {
	const dim, n0 = 64, 24
	rng := stats.NewRNG(41)
	ds := bitvec.RandomDataset(rng, n0, dim)
	dir := t.TempDir()
	ctx := context.Background()

	idx, info, err := NewDurable(ds, compileCPU, Options{CompactThreshold: -1},
		DurableOptions{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if info.Recovered || info.Generation != 0 || info.SnapshotVectors != n0 {
		t.Fatalf("first open info = %+v", info)
	}
	m := newMirror(ds)
	for i := 0; i < 30; i++ {
		v := bitvec.Random(rng, dim)
		id, err := idx.Insert(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		m.insert(id, v)
		if i%3 == 0 {
			if err := idx.Delete(ctx, id); err != nil {
				t.Fatal(err)
			}
			m.delete(id)
		}
	}
	if ds2 := idx.DurStats(); ds2 == nil || ds2.Appends == 0 || ds2.Fsyncs == 0 {
		t.Fatalf("durable stats = %+v", ds2)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	re, info, err := NewDurable(nil, compileCPU, Options{CompactThreshold: -1},
		DurableOptions{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !info.Recovered || info.Generation != 0 || info.Torn {
		t.Fatalf("reopen info = %+v", info)
	}
	// Barrier + 30 inserts + 10 deletes.
	if info.ReplayedRecords != 41 {
		t.Fatalf("replayed %d records, want 41", info.ReplayedRecords)
	}
	checkState(t, re, m, n0+30, rng, "reopen")
	// The ID sequence must continue exactly where the crash-free run stopped.
	v := bitvec.Random(rng, dim)
	id, err := re.Insert(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	if id != n0+30 {
		t.Fatalf("post-recovery insert id = %d, want %d", id, n0+30)
	}
}

// TestDurableTornTailSweep is the crash-recovery property test: a scripted
// mutation stream records the WAL length after every acknowledged op, then
// the log is cut at EVERY byte offset in turn and recovered in a fresh
// directory. Each recovery must equal the oracle prefix — exactly the ops
// whose acknowledgment boundary lies at or before the cut — with the torn
// flag set iff the cut fell inside a record.
func TestDurableTornTailSweep(t *testing.T) {
	const dim, n0, ops = 64, 16, 24
	rng := stats.NewRNG(43)
	ds := bitvec.RandomDataset(rng, n0, dim)
	dir := t.TempDir()
	ctx := context.Background()

	idx, _, err := NewDurable(ds, compileCPU, Options{CompactThreshold: -1},
		DurableOptions{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	base := idx.DurStats()
	size0 := base.WALSize // header + barrier: the empty-log length

	script := make([]mutation, 0, ops)
	liveIDs := make([]int, 0, n0+ops)
	for i := 0; i < n0; i++ {
		liveIDs = append(liveIDs, i)
	}
	for op := 0; op < ops; op++ {
		var mu mutation
		if rng.Intn(3) > 0 || len(liveIDs) == 0 {
			mu.insert = true
			mu.vec = bitvec.Random(rng, dim)
			if mu.id, err = idx.Insert(ctx, mu.vec); err != nil {
				t.Fatal(err)
			}
			liveIDs = append(liveIDs, mu.id)
		} else {
			i := rng.Intn(len(liveIDs))
			mu.id = liveIDs[i]
			liveIDs[i] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
			if err := idx.Delete(ctx, mu.id); err != nil {
				t.Fatal(err)
			}
		}
		st := idx.DurStats()
		mu.walSize = st.WALSize
		script = append(script, mu)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	full := script[len(script)-1].walSize

	srcSnap := filepath.Join(dir, snapName(0))
	srcWAL := filepath.Join(dir, walName(0))
	boundaries := map[int64]bool{size0: true}
	for _, mu := range script {
		boundaries[mu.walSize] = true
	}
	for cut := size0; cut <= full; cut++ {
		crash := t.TempDir()
		copyFile(t, srcSnap, filepath.Join(crash, snapName(0)), -1)
		copyFile(t, srcWAL, filepath.Join(crash, walName(0)), cut)

		re, info, err := NewDurable(nil, compileCPU, Options{CompactThreshold: -1},
			DurableOptions{Dir: crash, Policy: wal.SyncNever})
		if err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		if wantTorn := !boundaries[cut]; info.Torn != wantTorn {
			t.Fatalf("cut %d: torn=%v, want %v", cut, info.Torn, wantTorn)
		}
		m := newMirror(ds)
		nextID := n0
		for _, mu := range script {
			if mu.walSize > cut {
				break
			}
			if mu.insert {
				m.insert(mu.id, mu.vec)
				nextID = mu.id + 1
			} else {
				m.delete(mu.id)
			}
		}
		checkState(t, re, m, nextID, rng, fmt.Sprintf("cut %d", cut))
		re.Close()
	}
}

// TestDurableCompactionRecovery drives compactions — including churn injected
// while the compile is in flight, the carried-over records the rotation must
// write into the fresh log — closes, reopens, and requires the exact state
// back from the rotated pair alone.
func TestDurableCompactionRecovery(t *testing.T) {
	const dim, n0 = 64, 32
	rng := stats.NewRNG(47)
	ds := bitvec.RandomDataset(rng, n0, dim)
	dir := t.TempDir()
	ctx := context.Background()

	var idx *Index
	m := newMirror(ds)
	var injectMu sync.Mutex
	inject := false
	compile := func(cds *bitvec.Dataset) (apstats.ExcludingSearcher, error) {
		injectMu.Lock()
		doIt := inject
		inject = false
		injectMu.Unlock()
		if doIt {
			// Churn while the compile is running: these mutations are
			// acknowledged against the old log but must carry into the
			// rotated one.
			v := bitvec.Random(rng, dim)
			id, err := idx.Insert(ctx, v)
			if err != nil {
				return nil, err
			}
			m.insert(id, v)
			if err := idx.Delete(ctx, 0); err != nil {
				return nil, err
			}
			m.delete(0)
		}
		return &cpuSearcher{ds: cds}, nil
	}

	var err error
	idx, _, err = NewDurable(ds, compile, Options{CompactThreshold: -1},
		DurableOptions{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		v := bitvec.Random(rng, dim)
		id, err := idx.Insert(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		m.insert(id, v)
		if i%4 == 0 && i > 0 {
			if err := idx.Delete(ctx, id-1); err != nil {
				t.Fatal(err)
			}
			m.delete(id - 1)
		}
	}
	injectMu.Lock()
	inject = true
	injectMu.Unlock()
	if err := idx.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v := bitvec.Random(rng, dim)
		id, err := idx.Insert(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		m.insert(id, v)
	}
	if err := idx.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	nextID := idx.NextID()
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	// Only the newest generation's pair may remain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("durable dir holds %v, want exactly the gen-2 pair", names)
	}

	re, info, err := NewDurable(nil, compileCPU, Options{CompactThreshold: -1},
		DurableOptions{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !info.Recovered || info.Generation != 2 {
		t.Fatalf("reopen info = %+v, want recovery from gen 2", info)
	}
	checkState(t, re, m, nextID, rng, "post-compaction reopen")
}

// TestLiveOldestFirstChurnMatchesMirror is the sliding window: each round
// inserts a batch and deletes as many of the oldest live vectors, then
// compacts, so every compacted base holds a contiguous range of global IDs
// shifted past zero — one run of its ID map — that each base answer must be
// remapped through. One round deletes past the whole base into the delta.
// Every search is byte-identical to the mirror, over both kinds of base,
// before and after a close and reopen replays churn over such a base.
func TestLiveOldestFirstChurnMatchesMirror(t *testing.T) {
	const dim, n0 = 64, 96
	for kind, compile := range baseKinds() {
		compile := compile
		t.Run(kind, func(t *testing.T) {
			rng := stats.NewRNG(83)
			ds := bitvec.RandomDataset(rng, n0, dim)
			dir := t.TempDir()
			ctx := context.Background()
			open := func(seed *bitvec.Dataset) *Index {
				t.Helper()
				x, _, err := NewDurable(seed, compile, Options{CompactThreshold: -1},
					DurableOptions{Dir: dir, Policy: wal.SyncNever})
				if err != nil {
					t.Fatal(err)
				}
				return x
			}
			m := newMirror(ds)
			oldest := 0
			check := func(x *Index, label string) {
				t.Helper()
				queries := []bitvec.Vector{bitvec.Random(rng, dim), m.vecs[oldest].Clone(), m.vecs[x.NextID()-1].Clone()}
				for _, k := range []int{1, 8, len(m.vecs) + 1} {
					for qi, q := range queries {
						got, err := x.Search(ctx, []bitvec.Vector{q}, k)
						if err != nil {
							t.Fatal(err)
						}
						if want := m.search(q, k); !neighborsEqual(got[0], want) {
							t.Fatalf("%s: query %d, k=%d: got %v\nwant %v", label, qi, k, got[0], want)
						}
					}
				}
			}
			churn := func(x *Index, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					v := bitvec.Random(rng, dim)
					id, err := x.Insert(ctx, v)
					if err != nil {
						t.Fatal(err)
					}
					m.insert(id, v)
					if err := x.Delete(ctx, oldest); err != nil {
						t.Fatalf("delete oldest %d: %v", oldest, err)
					}
					m.delete(oldest)
					oldest++
				}
			}
			round := func(x *Index, n int, label string) {
				t.Helper()
				churn(x, n)
				check(x, label+", before compaction")
				if err := x.Compact(ctx); err != nil {
					t.Fatal(err)
				}
				check(x, label+", after compaction")
			}
			idx := open(ds)
			for r, n := range []int{40, 40, 130, 7, 70} {
				round(idx, n, fmt.Sprintf("round %d", r))
			}
			churn(idx, 10) // left in the log for the reopen to replay
			check(idx, "before close")
			nextID := idx.NextID()
			if err := idx.Close(); err != nil {
				t.Fatal(err)
			}
			re := open(nil)
			defer re.Close()
			if re.NextID() != nextID {
				t.Fatalf("reopened NextID %d, want %d", re.NextID(), nextID)
			}
			check(re, "after reopen")
			round(re, 50, "round after reopen")
		})
	}
}

// TestDurableSnapshotBytesGolden pins the snapshot files compactions write —
// the seed's identity map, the shifted range oldest-first churn leaves, and
// a map cut into several runs by scattered deletes in base and delta — to
// the sha256 of the bytes the format has always had for this state.
func TestDurableSnapshotBytesGolden(t *testing.T) {
	const dim, n0 = 70, 300
	rng := stats.NewRNG(67)
	dir := t.TempDir()
	ctx := context.Background()
	idx, _, err := NewDurable(bitvec.RandomDataset(rng, n0, dim), compileCPU, Options{CompactThreshold: -1},
		DurableOptions{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	digest := func(gen int64) string {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, snapName(gen)))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(data))
	}
	insert := func() int {
		t.Helper()
		id, err := idx.Insert(ctx, bitvec.Random(rng, dim))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	del := func(id int) {
		t.Helper()
		if err := idx.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	compact := func() {
		t.Helper()
		if err := idx.Compact(ctx); err != nil {
			t.Fatal(err)
		}
	}
	got := []string{digest(0)}
	for id := 0; id < 50; id++ {
		insert()
		del(id)
	}
	compact()
	got = append(got, digest(1))
	del(120)
	del(121)
	del(260)
	insert()
	del(insert())
	insert()
	compact()
	got = append(got, digest(2))
	want := []string{
		"459cf5aece5cae3e8ebaf077aec45fa0cc4a05db2be75e0b776acd5091320ed3",
		"80a6ff7d4f3f8215e94caed1ade8785e56c5f974ef01e0e9128152e45dcbd40b",
		"a2fe049b04531d33c0bfc50a7803025cbf5a1cb4f977e7532cfe58cef9a7159a",
	}
	for gen := range want {
		if got[gen] != want[gen] {
			t.Errorf("snapshot gen %d: sha256 %s, want %s", gen, got[gen], want[gen])
		}
	}
}

// TestDurableCrashBetweenSnapshotAndRotate pins the recovery rule for the
// riskiest window: the next generation's snapshot is durably renamed but the
// log rotation never happened. The orphan must be ignored — the previous
// complete pair still holds every acknowledged record — and cleaned up.
func TestDurableCrashBetweenSnapshotAndRotate(t *testing.T) {
	const dim, n0 = 64, 16
	rng := stats.NewRNG(53)
	ds := bitvec.RandomDataset(rng, n0, dim)
	dir := t.TempDir()
	ctx := context.Background()

	idx, _, err := NewDurable(ds, compileCPU, Options{CompactThreshold: -1},
		DurableOptions{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(ds)
	for i := 0; i < 12; i++ {
		v := bitvec.Random(rng, dim)
		id, err := idx.Insert(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		m.insert(id, v)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	// Fake the crash: a gen-1 snapshot (with whatever the compaction would
	// have folded — here deliberately stale content) exists, its log doesn't.
	stale := bitvec.RandomDataset(stats.NewRNG(99), 4, dim)
	if err := writeSnapshot(wal.OS, filepath.Join(dir, snapName(1)),
		stale, &bitvec.Manifest{Generation: 1, NextID: 4, IDs: bitvec.Identity(stale.Len())}); err != nil {
		t.Fatal(err)
	}

	re, info, err := NewDurable(nil, compileCPU, Options{CompactThreshold: -1},
		DurableOptions{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !info.Recovered || info.Generation != 0 {
		t.Fatalf("recovered gen %d, want the complete pair at gen 0 (info %+v)", info.Generation, info)
	}
	checkState(t, re, m, n0+12, rng, "orphan-ignored reopen")
	if _, err := os.Stat(filepath.Join(dir, snapName(1))); !os.IsNotExist(err) {
		t.Fatalf("stale orphan snapshot not cleaned up: %v", err)
	}
}

// TestDurableFirstOpenCrash covers the one window where an orphan snapshot
// IS the truth: first open crashed after the seed snapshot rename, before
// the log existed. No mutation can have been acknowledged, so recovery
// accepts the snapshot and materializes the missing log.
func TestDurableFirstOpenCrash(t *testing.T) {
	const dim, n0 = 64, 16
	ds := bitvec.RandomDataset(stats.NewRNG(59), n0, dim)
	dir := t.TempDir()
	if err := writeSnapshot(wal.OS, filepath.Join(dir, snapName(0)),
		ds, &bitvec.Manifest{Generation: 0, NextID: n0, IDs: bitvec.Identity(n0)}); err != nil {
		t.Fatal(err)
	}
	idx, info, err := NewDurable(nil, compileCPU, Options{CompactThreshold: -1},
		DurableOptions{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if !info.Recovered || info.Generation != 0 || info.SnapshotVectors != n0 {
		t.Fatalf("orphan first-open info = %+v", info)
	}
	if idx.Len() != n0 || idx.NextID() != n0 {
		t.Fatalf("Len=%d NextID=%d, want %d/%d", idx.Len(), idx.NextID(), n0, n0)
	}
	if _, err := os.Stat(filepath.Join(dir, walName(0))); err != nil {
		t.Fatalf("wal-0 not materialized: %v", err)
	}
	// And the index is fully usable: the next mutation lands in the new log.
	if _, err := idx.Insert(context.Background(), bitvec.Random(stats.NewRNG(1), dim)); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCloseLifecycle is the satellite regression: Close is idempotent
// (twice, and while owning a WAL handle), stops every background goroutine,
// and flips durable mutations to aperr.ErrClosed instead of silently
// dropping durability.
func TestDurableCloseLifecycle(t *testing.T) {
	const dim, n0 = 64, 16
	rng := stats.NewRNG(61)
	ds := bitvec.RandomDataset(rng, n0, dim)
	ctx := context.Background()
	before := runtime.NumGoroutine()

	idx, _, err := NewDurable(ds, compileCPU, Options{CompactThreshold: 8, CompactInterval: 5 * time.Millisecond},
		DurableOptions{Dir: t.TempDir(), Policy: wal.SyncInterval, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := idx.Insert(ctx, bitvec.Random(rng, dim)); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// Both loops (compactor, interval flusher) must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := idx.Insert(ctx, bitvec.Random(rng, dim)); !errors.Is(err, aperr.ErrClosed) {
		t.Fatalf("insert after close: got %v, want ErrClosed", err)
	}
	if err := idx.Delete(ctx, 0); !errors.Is(err, aperr.ErrClosed) {
		t.Fatalf("delete after close: got %v, want ErrClosed", err)
	}
	// Reads keep working: the in-memory view outlives the handles.
	if _, err := idx.Search(ctx, []bitvec.Vector{bitvec.Random(rng, dim)}, 3); err != nil {
		t.Fatalf("search after close: %v", err)
	}

	// A non-durable index stays fully usable after (double) Close.
	plain, err := New(bitvec.RandomDataset(rng, 8, dim), compileCPU, Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Insert(ctx, bitvec.Random(rng, dim)); err != nil {
		t.Fatalf("non-durable insert after close: %v", err)
	}
}

// TestDurableConcurrentChurn is the -race workout for the WAL path: parallel
// writers and searchers over a durable index with background compaction
// armed, then a clean close, reopen, and an exact state comparison.
func TestDurableConcurrentChurn(t *testing.T) {
	const dim, n0 = 64, 128
	rng := stats.NewRNG(67)
	ds := bitvec.RandomDataset(rng, n0, dim)
	dir := t.TempDir()
	ctx := context.Background()

	idx, _, err := NewDurable(ds, compileCPU, Options{CompactThreshold: 32},
		DurableOptions{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(ds)
	var mmu sync.Mutex
	var wg sync.WaitGroup
	const writers, each = 4, 60
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := stats.NewRNG(uint64(300 + w))
			for i := 0; i < each; i++ {
				v := bitvec.Random(r, dim)
				id, err := idx.Insert(ctx, v)
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				mmu.Lock()
				m.insert(id, v)
				mmu.Unlock()
				if i%3 == 0 {
					if err := idx.Delete(ctx, id); err != nil {
						t.Errorf("delete %d: %v", id, err)
						return
					}
					mmu.Lock()
					m.delete(id)
					mmu.Unlock()
				}
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := stats.NewRNG(uint64(400 + s))
			for i := 0; i < each; i++ {
				if _, err := idx.Search(ctx, []bitvec.Vector{bitvec.Random(r, dim)}, 5); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	nextID := idx.NextID()
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	re, info, err := NewDurable(nil, compileCPU, Options{CompactThreshold: -1},
		DurableOptions{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !info.Recovered {
		t.Fatalf("reopen info = %+v", info)
	}
	checkState(t, re, m, nextID, rng, "concurrent churn reopen")
}

// TestDurableDimMismatchOnReopen: a seed of the wrong width against an
// existing durable directory must fail with the typed sentinel.
func TestDurableDimMismatchOnReopen(t *testing.T) {
	dir := t.TempDir()
	ds := bitvec.RandomDataset(stats.NewRNG(71), 8, 64)
	idx, _, err := NewDurable(ds, compileCPU, Options{CompactThreshold: -1},
		DurableOptions{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	wrong := bitvec.RandomDataset(stats.NewRNG(72), 8, 128)
	if _, _, err := NewDurable(wrong, compileCPU, Options{}, DurableOptions{Dir: dir}); !errors.Is(err, aperr.ErrDimMismatch) {
		t.Fatalf("got %v, want ErrDimMismatch", err)
	}
}
