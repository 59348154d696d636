package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func completeOne(rec *FlightRecorder, id string, total time.Duration, o Outcome) *Trace {
	tr := NewTrace(id, "request")
	tr.Root().EndIn(total)
	rec.Complete(tr, total, o)
	return tr
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var rec *FlightRecorder
	rec.Complete(NewTrace("x", "request"), time.Millisecond, Outcome{})
	if rec.Recorded() != 0 || rec.Depth() != 0 {
		t.Fatal("nil recorder reported state")
	}
	if got := rec.Class(ClassRecent, 5); got != nil {
		t.Fatalf("nil recorder listed %v", got)
	}
	// A recorder must also tolerate a nil trace (untraced internal call).
	live := NewFlightRecorder("n", 4, 0, nil)
	live.Complete(nil, time.Millisecond, Outcome{})
	if live.Recorded() != 0 {
		t.Fatal("nil trace was recorded")
	}
}

// TestFlightRecorderEviction fills a depth-4 ring past capacity and checks
// the retained set is exactly the newest 4, listed newest-first.
func TestFlightRecorderEviction(t *testing.T) {
	rec := NewFlightRecorder("node-a", 4, 0, nil)
	for i := 0; i < 10; i++ {
		completeOne(rec, fmt.Sprintf("t%02d", i), time.Millisecond, Outcome{Status: 200})
	}
	got := rec.Class(ClassRecent, 0)
	if len(got) != 4 {
		t.Fatalf("retained %d records, want 4", len(got))
	}
	want := []string{"t09", "t08", "t07", "t06"}
	for i, r := range got {
		if r.TraceID != want[i] {
			t.Fatalf("record %d = %s, want %s", i, r.TraceID, want[i])
		}
		if r.Node != "node-a" {
			t.Fatalf("record node = %q", r.Node)
		}
	}
	if n := len(rec.Class(ClassRecent, 2)); n != 2 {
		t.Fatalf("n=2 returned %d records", n)
	}
	if rec.Recorded() != 10 {
		t.Fatalf("recorded = %d, want 10", rec.Recorded())
	}
}

func TestFlightRecorderClassification(t *testing.T) {
	// Fixed windowed p99 of 10ms; slow factor 4 → slow at >= 40ms.
	p99 := func(time.Time) int64 { return (10 * time.Millisecond).Nanoseconds() }
	rec := NewFlightRecorder("n", 8, 4, p99)

	completeOne(rec, "fine", time.Millisecond, Outcome{Status: 200})
	completeOne(rec, "slow1", 50*time.Millisecond, Outcome{Status: 200})
	completeOne(rec, "shed1", time.Millisecond, Outcome{Status: 429})
	completeOne(rec, "err1", time.Millisecond, Outcome{Status: 502, Err: "bad gateway"})

	hedged := NewTrace("hedge1", "request")
	leg := hedged.Root().StartChild("shard0_leg")
	leg.SetAttr("hedged", "true")
	leg.SetAttr("winner", "true")
	leg.EndIn(time.Millisecond)
	hedged.Root().EndIn(2 * time.Millisecond)
	rec.Complete(hedged, 2*time.Millisecond, Outcome{Status: 200})

	counts := rec.ClassCounts()
	wantCounts := map[string]int{ClassRecent: 5, ClassSlow: 1, ClassShed: 1, ClassError: 1, ClassHedge: 1}
	for class, want := range wantCounts {
		if counts[class] != want {
			t.Errorf("class %s has %d records, want %d (all: %v)", class, counts[class], want, counts)
		}
	}
	if got := rec.Class(ClassSlow, 0); len(got) != 1 || got[0].TraceID != "slow1" {
		t.Fatalf("slow ring = %v", got)
	}
	if got := rec.Class(ClassError, 0); len(got) != 1 || got[0].Error != "bad gateway" {
		t.Fatalf("error ring = %v", got)
	}

	// ByTraceID finds across rings and dedups: slow1 sits in both recent
	// and slow but must come back once.
	if got := rec.ByTraceID("slow1"); len(got) != 1 || len(got[0].Classes) != 2 {
		t.Fatalf("ByTraceID(slow1) = %+v", got)
	}
	if got := rec.ByTraceID("missing"); len(got) != 0 {
		t.Fatalf("ByTraceID(missing) = %v", got)
	}
}

// TestAnomalyWatcher trips the watcher with a breaching p99 and checks the
// bundle lands on disk with the three JSON artifacts.
func TestAnomalyWatcher(t *testing.T) {
	dir := t.TempDir()
	rec := NewFlightRecorder("n", 4, 0, nil)
	completeOne(rec, "victim", 90*time.Millisecond, Outcome{Status: 200})
	breach := (90 * time.Millisecond).Nanoseconds()
	w := NewAnomalyWatcher(AnomalyConfig{
		Target:   10 * time.Millisecond,
		Factor:   3,
		Interval: time.Millisecond,
		Cooldown: time.Hour, // one trip only
		Dir:      dir,
	}, func(time.Time) int64 { return breach }, rec, Default)
	defer w.Close()

	deadline := time.Now().Add(5 * time.Second)
	for w.Trips() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never tripped")
		}
		time.Sleep(time.Millisecond)
	}
	w.Close()
	if got := w.Trips(); got != 1 {
		t.Fatalf("trips = %d, want 1 (cooldown must hold)", got)
	}
	bundles, err := filepath.Glob(filepath.Join(dir, "anomaly-*"))
	if err != nil || len(bundles) != 1 {
		t.Fatalf("bundles = %v (err %v)", bundles, err)
	}
	for _, name := range []string{"meta.json", "traces.json", "windows.json"} {
		if _, err := os.Stat(filepath.Join(bundles[0], name)); err != nil {
			t.Errorf("bundle missing %s: %v", name, err)
		}
	}
}
