package live

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"syscall"
	"testing"

	"repro/internal/aperr"
	"repro/internal/apstats"
	"repro/internal/bitvec"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/wal/memfs"
)

const faultDir = "/data"

// faultOp is one step of a scripted history: an insert, a delete, or a
// compaction that runs the steps in during while its compile is in flight.
type faultOp struct {
	kind   byte // 'i', 'd' or 'c'
	vec    bitvec.Vector
	id     int // delete target
	during []faultOp
}

// faultScript is a seeded history of about 40 inserts and deletes with two
// compactions, each with an insert and a delete landing mid-compile. A delete
// names a vector live in the history's fault-free run.
func faultScript(seed uint64, dim, n0 int) []faultOp {
	rng := stats.NewRNG(seed)
	live := make([]int, n0)
	for i := range live {
		live[i] = i
	}
	next := n0
	step := func() faultOp {
		if rng.Intn(3) > 0 || len(live) == 0 {
			live = append(live, next)
			next++
			return faultOp{kind: 'i', vec: bitvec.Random(rng, dim)}
		}
		j := rng.Intn(len(live))
		id := live[j]
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		return faultOp{kind: 'd', id: id}
	}
	var ops []faultOp
	for i := 0; i < 36; i++ {
		if i == 12 || i == 26 {
			ops = append(ops, faultOp{kind: 'c', during: []faultOp{
				{kind: 'i', vec: bitvec.Random(rng, dim)},
				{kind: 'd', id: next},
			}})
			next++
		}
		ops = append(ops, step())
	}
	return ops
}

// faultOutcome is what one run of the history acknowledged: the mirror of
// the acknowledged writes, their NextID, and the first mutation that returned
// an error — which a crash may or may not have kept.
type faultOutcome struct {
	acked    *mirror
	nextID   int
	failed   *faultOp
	failedID int // the ID a failed insert would have taken
}

// runFaultHistory opens a durable index on fsys and plays ops until the end
// or the crash. A mutation after the first failed one must be refused too.
func runFaultHistory(t *testing.T, fsys *memfs.FS, seed *bitvec.Dataset, policy wal.SyncPolicy, ops []faultOp) faultOutcome {
	t.Helper()
	ctx := context.Background()
	out := faultOutcome{acked: newMirror(seed), nextID: seed.Len()}
	var x *Index
	var apply func(op faultOp)
	var during []faultOp
	compile := func(ds *bitvec.Dataset) (apstats.ExcludingSearcher, error) {
		for _, op := range during {
			apply(op)
		}
		during = nil
		return compileCPU(ds)
	}
	apply = func(op faultOp) {
		if fsys.Crashed() {
			return // the process is gone
		}
		var err error
		switch op.kind {
		case 'i':
			var id int
			if id, err = x.Insert(ctx, op.vec); err == nil {
				if out.failed != nil {
					t.Fatalf("insert %d acknowledged after a failed mutation", id)
				}
				out.acked.insert(id, op.vec)
				out.nextID = id + 1
			}
		case 'd':
			if err = x.Delete(ctx, op.id); err == nil {
				if out.failed != nil {
					t.Fatalf("delete %d acknowledged after a failed mutation", op.id)
				}
				out.acked.delete(op.id)
			}
		case 'c':
			during = op.during
			x.Compact(ctx) // a failed compaction changes nothing a reader sees
			during = nil
		}
		if err != nil && out.failed == nil {
			op := op
			out.failed, out.failedID = &op, out.nextID
		}
	}
	var err error
	x, _, err = openDurable(fsys, seed, compile, Options{CompactThreshold: -1}, DurableOptions{Dir: faultDir, Policy: policy})
	if err != nil {
		return out // nothing was acknowledged
	}
	for _, op := range ops {
		apply(op)
	}
	fsys.Crash(len(fsys.Calls()) + 1) // the program ends here
	x.Close()
	return out
}

// recoveredMatches reports whether x holds exactly the state of m: its
// length, NextID and, byte for byte, every query's full ranking.
func recoveredMatches(x *Index, m *mirror, nextID int, queries []bitvec.Vector) bool {
	if x.Len() != len(m.vecs) || x.NextID() != nextID {
		return false
	}
	for _, q := range queries {
		got, err := x.Search(context.Background(), []bitvec.Vector{q}, len(m.vecs)+1)
		if err != nil || !neighborsEqual(got[0], m.search(q, len(m.vecs)+1)) {
			return false
		}
	}
	return true
}

// checkRecovery reopens the image and requires every acknowledged write and
// nothing else, but for the one mutation that returned an error, which may
// or may not have survived.
func checkRecovery(t *testing.T, img *memfs.FS, seed *bitvec.Dataset, policy wal.SyncPolicy, o faultOutcome, queries []bitvec.Vector, label string) {
	t.Helper()
	x, _, err := openDurable(img, seed, compileCPU, Options{CompactThreshold: -1}, DurableOptions{Dir: faultDir, Policy: policy})
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer x.Close()
	if recoveredMatches(x, o.acked, o.nextID, queries) {
		return
	}
	if f := o.failed; f != nil && f.kind != 'c' {
		alt := &mirror{dim: o.acked.dim, vecs: map[int]bitvec.Vector{}}
		for id, v := range o.acked.vecs {
			alt.vecs[id] = v
		}
		altNext := o.nextID
		if f.kind == 'i' {
			alt.insert(o.failedID, f.vec)
			altNext = o.failedID + 1
		} else {
			alt.delete(f.id)
		}
		if recoveredMatches(x, alt, altNext, queries) {
			return
		}
	}
	t.Fatalf("%s: recovered Len=%d NextID=%d; acknowledged Len=%d NextID=%d (failed op %+v)",
		label, x.Len(), x.NextID(), len(o.acked.vecs), o.nextID, o.failed)
}

// TestDurableFaultSchedule runs one seeded history — about 40 inserts and
// deletes, two compactions with churn landing mid-compile — on the in-memory
// filesystem once per call it makes: crashing at that call (a process crash,
// and under SyncAlways a power loss too), and failing it with every fault of
// its kind, the program carrying on after the error and then crashing. After
// each run the directory must reopen with every acknowledged write, and
// search must match the oracle over what survived.
func TestDurableFaultSchedule(t *testing.T) {
	const dim, n0, seed = 64, 16, 1
	seedDS := bitvec.RandomDataset(stats.NewRNG(seed), n0, dim)
	ops := faultScript(seed+1, dim, n0)
	rng := stats.NewRNG(seed + 2)
	queries := []bitvec.Vector{bitvec.Random(rng, dim), bitvec.Random(rng, dim)}
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncNever} {
		check := func(fsys *memfs.FS, o faultOutcome, label string) {
			t.Helper()
			label = fmt.Sprintf("seed %d, %v, %s", seed, policy, label)
			checkRecovery(t, fsys.Image(false), seedDS, policy, o, queries, label+", process crash")
			if policy == wal.SyncAlways {
				checkRecovery(t, fsys.Image(true), seedDS, policy, o, queries, label+", power loss")
			}
		}
		clean := memfs.New()
		o := runFaultHistory(t, clean, seedDS, policy, ops)
		if o.failed != nil {
			t.Fatalf("seed %d, %v: the fault-free run failed op %+v", seed, policy, *o.failed)
		}
		check(clean, o, "no fault")
		calls := clean.Calls()
		t.Logf("%v: %d calls, each crashed at and failed with every fault of its kind", policy, len(calls)-1)
		for n := 1; n < len(calls); n++ {
			fsys := memfs.New()
			fsys.Crash(n)
			check(fsys, runFaultHistory(t, fsys, seedDS, policy, ops), fmt.Sprintf("crash at call %d of %d", n, len(calls)))
			for _, f := range memfs.Faults {
				if f.Op() != calls[n-1] {
					continue
				}
				fsys := memfs.New()
				fsys.Fail(n, f)
				check(fsys, runFaultHistory(t, fsys, seedDS, policy, ops), fmt.Sprintf("%v at call %d", f, n))
			}
		}
	}
}

// openFaultIndex opens a fresh durable index over 16 seed vectors on m,
// inserts extra more, and returns it with its mirror.
func openFaultIndex(t *testing.T, m *memfs.FS, policy wal.SyncPolicy, extra int) (*Index, *mirror, *stats.RNG) {
	t.Helper()
	rng := stats.NewRNG(97)
	ds := bitvec.RandomDataset(rng, 16, 64)
	x, _, err := openDurable(m, ds, compileCPU, Options{CompactThreshold: -1}, DurableOptions{Dir: faultDir, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	mir := newMirror(ds)
	for i := 0; i < extra; i++ {
		v := bitvec.Random(rng, 64)
		id, err := x.Insert(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		mir.insert(id, v)
	}
	return x, mir, rng
}

// TestDurableAppendFaultRefusesWrites: once an insert or a delete fails to
// reach the log — its write cut short or refused by a full disk, or its
// fsync failing — the index refuses every later insert and delete with an
// error wrapping that failure, and keeps answering searches. Reopening
// recovers every acknowledged write, after a process crash or a power loss.
// Before, one more acknowledged insert after an fsync error left a directory
// that no longer opened (the failed record and the next one shared an ID),
// and inserts acknowledged after a short write were lost behind its torn
// record.
func TestDurableAppendFaultRefusesWrites(t *testing.T) {
	ctx := context.Background()
	for _, fault := range []memfs.Fault{memfs.ShortWrite, memfs.NoSpace, memfs.EIO} {
		for _, del := range []bool{false, true} {
			label := fmt.Sprintf("%v on an insert", fault)
			if del {
				label = fmt.Sprintf("%v on a delete", fault)
			}
			m := memfs.New()
			x, mir, rng := openFaultIndex(t, m, wal.SyncAlways, 1)
			at, errno := len(m.Calls())+1, syscall.ENOSPC
			if fault == memfs.EIO {
				at, errno = at+1, syscall.EIO
			}
			m.Fail(at, fault)
			var err error
			if del {
				err = x.Delete(ctx, 3)
			} else {
				_, err = x.Insert(ctx, bitvec.Random(rng, 64))
			}
			if !errors.Is(err, errno) {
				t.Fatalf("%s: got %v, want %v", label, err, errno)
			}
			for i := 0; i < 5; i++ {
				if _, err := x.Insert(ctx, bitvec.Random(rng, 64)); !errors.Is(err, errno) {
					t.Fatalf("%s: insert %d after it: %v, want it refused wrapping %v", label, i, err, errno)
				}
			}
			if err := x.Delete(ctx, 5); !errors.Is(err, errno) {
				t.Fatalf("%s: delete after it: %v, want it refused wrapping %v", label, err, errno)
			}
			queries := []bitvec.Vector{bitvec.Random(rng, 64)}
			if !recoveredMatches(x, mir, 17, queries) {
				t.Fatalf("%s: searches after the fault disagree with the acknowledged writes", label)
			}
			for _, power := range []bool{false, true} {
				re, _, err := openDurable(m.Image(power), nil, compileCPU, Options{CompactThreshold: -1},
					DurableOptions{Dir: faultDir, Policy: wal.SyncAlways})
				if err != nil {
					t.Fatalf("%s, power loss %v: reopen: %v", label, power, err)
				}
				if !recoveredMatches(re, mir, 17, queries) {
					t.Fatalf("%s, power loss %v: reopened Len=%d NextID=%d, want 17 and 17", label, power, re.Len(), re.NextID())
				}
				if _, err := re.Insert(ctx, bitvec.Random(rng, 64)); err != nil {
					t.Fatalf("%s, power loss %v: insert after reopen: %v", label, power, err)
				}
				re.Close()
			}
			x.Close()
		}
	}
}

// TestDurableCompactPoisonedLog: once a failed append has poisoned the log,
// Compact refuses at once, wrapping that failure, and makes no filesystem
// call: no compile, no snapshot. Before, every call compiled the survivors
// and published the next generation's snapshot, then had the rotation
// refused. Each refusal counts one compaction failure, none a compaction.
func TestDurableCompactPoisonedLog(t *testing.T) {
	ctx := context.Background()
	m := memfs.New()
	x, _, rng := openFaultIndex(t, m, wal.SyncAlways, 3)
	defer x.Close()
	m.Fail(len(m.Calls())+1, memfs.NoSpace)
	if _, err := x.Insert(ctx, bitvec.Random(rng, 64)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("faulted insert: %v, want ENOSPC", err)
	}
	calls := len(m.Calls())
	var first error
	for i := 0; i < 3; i++ {
		err := x.Compact(ctx)
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("compact %d: %v, want it refused wrapping ENOSPC", i, err)
		}
		if first == nil {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("compact %d: %q, want %q again", i, err, first)
		}
		if got := x.Stats().CompactionFailures; got != int64(i+1) {
			t.Fatalf("compact %d: %d compaction failures counted, want %d", i, got, i+1)
		}
	}
	if n := len(m.Calls()) - calls; n != 0 {
		t.Fatalf("refused compactions made %d filesystem calls: %v", n, m.Calls()[calls:])
	}
	if x.Stats().Compactions != 0 {
		t.Fatalf("a refused compaction was counted")
	}
}

// TestDurableCompactAfterClose: Compact on a closed durable index that has
// churn refuses with ErrClosed before it compiles or touches the directory.
// Before, it compiled the survivors and published snap-1 beside the closed
// generation, then refused at the rotation.
func TestDurableCompactAfterClose(t *testing.T) {
	m := memfs.New()
	x, _, _ := openFaultIndex(t, m, wal.SyncAlways, 3)
	if err := x.Delete(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	calls := len(m.Calls())
	if err := x.Compact(context.Background()); !errors.Is(err, aperr.ErrClosed) {
		t.Fatalf("compact after close: %v, want ErrClosed", err)
	}
	if n := len(m.Calls()) - calls; n != 0 {
		t.Fatalf("compact after close made %d filesystem calls: %v", n, m.Calls()[calls:])
	}
	names, err := m.ReadDir(faultDir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{snapName(0), walName(0)}; !slices.Equal(names, want) {
		t.Fatalf("directory after a refused compaction holds %v, want %v", names, want)
	}
}

// TestDurableRotationDirSyncFault: a compaction whose directory sync fails
// right after it renames the next generation's log into place. The rotation
// takes that log back out, so the 5 inserts acknowledged afterwards land in
// the current log, and a reopen holds all 25 vectors — before, it picked the
// new generation and held 20. When the log cannot be taken back out either,
// the index refuses writes, and a reopen holds the 20 it acknowledged.
func TestDurableRotationDirSyncFault(t *testing.T) {
	ctx := context.Background()
	for _, undone := range []bool{true, false} {
		m := memfs.New()
		x, mir, rng := openFaultIndex(t, m, wal.SyncAlways, 4)
		// The compaction's calls: the snapshot's publish, which ends in a
		// directory sync, then the log's, whose directory sync fails; the
		// rotation then closes the new log, removes it and syncs again.
		before := len(m.Calls())
		probe := m.Image(false)
		px, _, err := openDurable(probe, nil, compileCPU, Options{CompactThreshold: -1}, DurableOptions{Dir: faultDir, Policy: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		opened := len(probe.Calls())
		if err := px.Compact(ctx); err != nil {
			t.Fatal(err)
		}
		var dirSyncs []int
		for i, op := range probe.Calls()[opened:] {
			if op == memfs.OpSyncDir {
				dirSyncs = append(dirSyncs, before+i+1)
			}
		}
		px.Close()
		m.Fail(dirSyncs[1], memfs.SyncDirFail)
		if !undone {
			m.Fail(dirSyncs[1]+3, memfs.SyncDirFail)
		}
		if err := x.Compact(ctx); !errors.Is(err, syscall.EIO) {
			t.Fatalf("undone=%v: compact: %v, want the directory sync's EIO", undone, err)
		}
		if st := x.Stats(); st.CompactionFailures != 1 || st.Compactions != 0 {
			t.Fatalf("undone=%v: %d compactions and %d failures counted, want 0 and 1",
				undone, st.Compactions, st.CompactionFailures)
		}
		for i := 0; i < 5; i++ {
			v := bitvec.Random(rng, 64)
			id, err := x.Insert(ctx, v)
			if undone && err != nil {
				t.Fatalf("insert %d after an undone rotation: %v", i, err)
			}
			if !undone && !errors.Is(err, syscall.EIO) {
				t.Fatalf("insert %d after a rotation that could not be undone: %v, want it refused", i, err)
			}
			if err == nil {
				mir.insert(id, v)
			}
		}
		queries := []bitvec.Vector{bitvec.Random(rng, 64)}
		for _, power := range []bool{false, true} {
			re, info, err := openDurable(m.Image(power), nil, compileCPU, Options{CompactThreshold: -1},
				DurableOptions{Dir: faultDir, Policy: wal.SyncAlways})
			if err != nil {
				t.Fatalf("undone=%v, power loss %v: reopen: %v", undone, power, err)
			}
			if !recoveredMatches(re, mir, len(mir.vecs), queries) {
				t.Fatalf("undone=%v, power loss %v: reopened generation %d with %d vectors, want %d",
					undone, power, info.Generation, re.Len(), len(mir.vecs))
			}
			re.Close()
		}
		x.Close()
	}
}
