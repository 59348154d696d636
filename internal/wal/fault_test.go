package wal_test

import (
	"errors"
	"io/fs"
	"syscall"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/wal/memfs"
)

const faultDim = 70

// faultRecords is a barrier and alternating inserts and deletes.
func faultRecords(n int) []wal.Record {
	rng := stats.NewRNG(5)
	recs := []wal.Record{{Type: wal.RecBarrier, Gen: 1, NextID: 10}}
	for i := 0; len(recs) < n; i++ {
		recs = append(recs, wal.InsertRecord(10+i, bitvec.Random(rng, faultDim)), wal.Record{Type: wal.RecDelete, ID: 10 + i})
	}
	return recs[:n]
}

func sameRecord(a, b wal.Record) bool {
	if a.Type != b.Type || a.ID != b.ID || a.Gen != b.Gen || a.NextID != b.NextID || len(a.Words) != len(b.Words) {
		return false
	}
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			return false
		}
	}
	return true
}

// replays opens path on fsys and requires exactly want back, with no torn
// tail.
func replays(t *testing.T, fsys wal.FS, path string, want []wal.Record, label string) {
	t.Helper()
	var got []wal.Record
	l, rep, err := wal.Open(path, faultDim, wal.Options{FS: fsys}, func(r wal.Record) error {
		r.Words = append([]uint64(nil), r.Words...)
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer l.Close()
	if rep.Torn || len(got) != len(want) {
		t.Fatalf("%s: replayed %d records (torn=%v), want %d", label, len(got), rep.Torn, len(want))
	}
	for i := range want {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestWALAppendFaultPoisons: an append whose write is cut short or refused
// by a full disk, or whose fsync fails, is cut back off the file, and the log
// is poisoned: every later Append, Sync and Rotate fails wrapping the first
// failure, without touching the disk. The failure names the log's own path. After a process crash or a power loss
// the log replays exactly the acknowledged records, with no torn tail.
func TestWALAppendFaultPoisons(t *testing.T) {
	recs := faultRecords(8)
	for _, fault := range []memfs.Fault{memfs.ShortWrite, memfs.NoSpace, memfs.EIO} {
		t.Run(fault.String(), func(t *testing.T) {
			m := memfs.New()
			if err := m.MkdirAll("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			l, err := wal.Create("/d/x.log", faultDim, wal.Options{Policy: wal.SyncAlways, FS: m})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs[:5] {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			// An append is one write, then (SyncAlways) one fsync.
			at, errno := len(m.Calls())+1, syscall.ENOSPC
			if fault == memfs.EIO {
				at, errno = at+1, syscall.EIO
			}
			m.Fail(at, fault)
			err = l.Append(recs[5])
			if !errors.Is(err, errno) {
				t.Fatalf("faulted append: %v, want %v", err, errno)
			}
			// The log was published by renaming x.log.tmp; its errors
			// name the file it is now.
			var pe *fs.PathError
			if !errors.As(err, &pe) || pe.Path != "/d/x.log" {
				t.Fatalf("faulted append: %v, want a path error naming /d/x.log", err)
			}
			calls := len(m.Calls())
			refused := map[string]func() error{
				"append": func() error { return l.Append(recs[6]) },
				"sync":   l.Sync,
				"rotate": func() error { _, err := l.Rotate("/d/y.log", nil); return err },
			}
			for op, call := range refused {
				if err := call(); !errors.Is(err, errno) {
					t.Fatalf("%s after the fault: %v, want it refused wrapping %v", op, err, errno)
				}
			}
			if n := len(m.Calls()); n != calls {
				t.Fatalf("refused ops made %d filesystem calls", n-calls)
			}
			replays(t, m.Image(false), "/d/x.log", recs[:5], "process crash")
			replays(t, m.Image(true), "/d/x.log", recs[:5], "power loss")
			l.Close()
		})
	}
}

// TestWALRotateDirSyncFault: a rotation whose directory sync fails after the
// rename takes the new log back out, and the old log keeps taking appends
// that a crash then replays. When the removal cannot be made durable either,
// neither log is safe to append to, and the old one is poisoned.
func TestWALRotateDirSyncFault(t *testing.T) {
	recs := faultRecords(6)
	for _, undone := range []bool{true, false} {
		m := memfs.New()
		if err := m.MkdirAll("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		l, err := wal.Create("/d/wal-0.log", faultDim, wal.Options{Policy: wal.SyncAlways, FS: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs[:3] {
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		// Rotate: open the .tmp, write, fsync, rename, sync the directory;
		// then, failing that, close, remove the new log, sync again.
		n := len(m.Calls())
		m.Fail(n+5, memfs.SyncDirFail)
		if !undone {
			m.Fail(n+8, memfs.SyncDirFail)
		}
		if next, err := l.Rotate("/d/wal-1.log", recs[:1]); !errors.Is(err, syscall.EIO) || next != nil {
			t.Fatalf("undone=%v: rotate: %v, want the directory sync's EIO", undone, err)
		}
		names, err := m.ReadDir("/d")
		if err != nil {
			t.Fatal(err)
		}
		if undone && (len(names) != 1 || names[0] != "wal-0.log") {
			t.Fatalf("after an undone rotation the directory holds %v, want only wal-0.log", names)
		}
		err = l.Append(recs[3])
		if !undone {
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("append after a rotation that could not be undone: %v, want it refused", err)
			}
			l.Close()
			continue
		}
		if err != nil {
			t.Fatalf("append after an undone rotation: %v", err)
		}
		replays(t, m.Image(false), "/d/wal-0.log", recs[:4], "process crash")
		replays(t, m.Image(true), "/d/wal-0.log", recs[:4], "power loss")
		l.Close()
	}
}
