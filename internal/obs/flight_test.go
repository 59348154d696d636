package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
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
	live := NewFlightRecorder("n", 4, nil)
	live.Complete(nil, time.Millisecond, Outcome{})
	if live.Recorded() != 0 {
		t.Fatal("nil trace was recorded")
	}
}

// TestFlightRecorderEviction fills a depth-4 ring past capacity and checks
// the retained set is exactly the newest 4, listed newest-first.
func TestFlightRecorderEviction(t *testing.T) {
	rec := NewFlightRecorder("node-a", 4, nil)
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
	rec := NewFlightRecorder("n", 8, p99)

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

// TestAnomalyWatcher drives the watcher's check by hand: a breaching p99
// trips one bundle with the three JSON artifacts, a second breach inside the
// 30 s cooldown does not, and one past it trips again.
func TestAnomalyWatcher(t *testing.T) {
	dir := t.TempDir()
	rec := NewFlightRecorder("n", 4, nil)
	completeOne(rec, "victim", 90*time.Millisecond, Outcome{Status: 200})
	breach := (90 * time.Millisecond).Nanoseconds()
	w := NewAnomalyWatcher(AnomalyConfig{Target: 10 * time.Millisecond, Dir: dir},
		func(time.Time) int64 { return breach }, rec, Default)
	w.Close() // the loop would tick every 2 s; this test calls check itself

	now := time.Now()
	for _, step := range []struct {
		at    time.Duration
		trips int64
	}{
		{0, 1},                // a breach trips
		{time.Second, 1},      // inside the cooldown: no second bundle
		{31 * time.Second, 2}, // past it: the next breach trips again
	} {
		w.check(now.Add(step.at))
		if got := w.Trips(); got != step.trips {
			t.Fatalf("after a breach at +%v: trips = %d, want %d", step.at, got, step.trips)
		}
	}
	bundles, err := filepath.Glob(filepath.Join(dir, "anomaly-*"))
	if err != nil || len(bundles) != 2 {
		t.Fatalf("bundles = %v (err %v), want 2", bundles, err)
	}
	for _, name := range []string{"meta.json", "traces.json", "windows.json"} {
		if _, err := os.Stat(filepath.Join(bundles[0], name)); err != nil {
			t.Errorf("bundle missing %s: %v", name, err)
		}
	}
}

// TestFlightRecorderWireOnRead: the recorder retains span trees and builds
// the wire form when asked, and what Class, ByTraceID and Dump hand out is
// exactly what wiring each tree at completion would have stored — every
// scalar, every class list, every span.
func TestFlightRecorderWireOnRead(t *testing.T) {
	p99 := func(time.Time) int64 { return (10 * time.Millisecond).Nanoseconds() }
	rec := NewFlightRecorder("node-a", 8, p99)
	want := make(map[string]*TraceRecord)
	complete := func(id string, total time.Duration, o Outcome, classes []string, build func(root *Span)) {
		tr := NewTrace(id, "request")
		root := tr.Root()
		root.SetAttr("node", "node-a")
		if build != nil {
			build(root)
		}
		root.EndIn(total)
		want[id] = &TraceRecord{
			TraceID: id, Node: "node-a", Classes: classes,
			StartUnixNS: tr.Start.UnixNano(), TotalNS: int64(total),
			Status: o.Status, Error: o.Err,
			Root: root.Wire(), // the eager form, taken before the recorder sees the trace
		}
		rec.Complete(tr, total, o)
	}
	complete("plain", time.Millisecond, Outcome{Status: 200}, []string{ClassRecent}, func(root *Span) {
		root.ObserveChild("queue_wait", 200*time.Microsecond)
		b := root.StartChild("backend")
		b.SetAttr("flush_size", "3")
		b.StartChild("kernel_scan").EndIn(50 * time.Microsecond)
		b.EndIn(300 * time.Microsecond)
	})
	complete("slow-hedge", 50*time.Millisecond, Outcome{Status: 200}, []string{ClassRecent, ClassSlow, ClassHedge}, func(root *Span) {
		loser := root.StartChild("shard0_leg")
		loser.SetAttr("replica", "a")
		loser.EndIn(40 * time.Millisecond)
		winner := root.StartChild("shard0_leg")
		winner.SetAttr("hedged", "true")
		winner.SetAttr("winner", "true")
		winner.EndIn(5 * time.Millisecond)
	})
	complete("shed", time.Millisecond, Outcome{Status: 429, Err: "saturated"}, []string{ClassRecent, ClassShed}, nil)
	complete("broken", time.Millisecond, Outcome{Status: 502, Err: "bad gateway"}, []string{ClassRecent, ClassError}, nil)
	// A hedged attempt that lost, and a winner that was not a hedge, are not
	// hedge wins.
	complete("hedge-lost", time.Millisecond, Outcome{Status: 200}, []string{ClassRecent}, func(root *Span) {
		primary := root.StartChild("shard0_leg")
		primary.SetAttr("winner", "true")
		primary.EndIn(time.Millisecond)
		hedge := root.StartChild("shard0_leg")
		hedge.SetAttr("hedged", "true")
		hedge.EndIn(time.Millisecond)
	})

	check := func(where string, got *TraceRecord) {
		t.Helper()
		if !reflect.DeepEqual(got, want[got.TraceID]) {
			t.Errorf("%s: record %s\n got %+v root %+v\nwant %+v root %+v",
				where, got.TraceID, got, got.Root, want[got.TraceID], want[got.TraceID].Root)
		}
	}
	for class, ids := range map[string][]string{
		ClassRecent: {"hedge-lost", "broken", "shed", "slow-hedge", "plain"},
		ClassSlow:   {"slow-hedge"},
		ClassHedge:  {"slow-hedge"},
		ClassShed:   {"shed"},
		ClassError:  {"broken"},
	} {
		got := rec.Class(class, 0)
		if len(got) != len(ids) {
			t.Fatalf("class %s holds %d records, want %d", class, len(got), len(ids))
		}
		for i, r := range got {
			if r.TraceID != ids[i] {
				t.Errorf("class %s record %d is %s, want %s (newest first)", class, i, r.TraceID, ids[i])
			}
			check("Class("+class+")", r)
		}
		dumped := rec.Dump()[class]
		if len(dumped) != len(ids) {
			t.Fatalf("Dump()[%s] holds %d records, want %d", class, len(dumped), len(ids))
		}
		for _, r := range dumped {
			check("Dump", r)
		}
	}
	for id := range want {
		got := rec.ByTraceID(id)
		if len(got) != 1 {
			t.Fatalf("ByTraceID(%s) returned %d records", id, len(got))
		}
		check("ByTraceID", got[0])
	}
	// Every read builds records of its own: a reader that grafts into one
	// (the router's stitcher) reaches neither the recorder nor the next read.
	first := rec.ByTraceID("plain")[0]
	first.Root.Children = nil
	first.Root.Attrs["node"] = "forged"
	check("second read", rec.ByTraceID("plain")[0])
}

// TestFlightRecorderCachedThreshold drives the slow classifier's threshold
// from an injected clock — each trace's own start plus total — and checks
// that the windowed p99 behind it is re-read after a second and not before.
func TestFlightRecorderCachedThreshold(t *testing.T) {
	h := NewUnregisteredHistogram("test_threshold_seconds", "test")
	p99 := h.WindowQuantile(0.99)
	rec := NewFlightRecorder("n", 8, func(now time.Time) int64 {
		ns, _ := p99.At(now)
		return ns
	})
	t0 := time.Unix(1_700_000_000, 0)
	finishAt := func(id string, at time.Time, total time.Duration) []string {
		tr := NewTrace(id, "request")
		tr.Start = at.Add(-total)
		tr.Root().EndIn(total)
		rec.Complete(tr, total, Outcome{Status: 200})
		return rec.ByTraceID(id)[0].Classes
	}
	slow, fine := []string{ClassRecent, ClassSlow}, []string{ClassRecent}

	for i := 0; i < 100; i++ {
		h.Record(time.Millisecond)
	}
	// p99 ≈ 1 ms, so 10 ms is past 4× of it.
	if got := finishAt("a", t0, 10*time.Millisecond); !reflect.DeepEqual(got, slow) {
		t.Fatalf("10 ms against a 1 ms p99 classed %v, want %v", got, slow)
	}
	// The tail moves to 100 ms. Inside the cache's second the threshold is
	// still the old one...
	for i := 0; i < 10000; i++ {
		h.Record(100 * time.Millisecond)
	}
	if got := finishAt("b", t0.Add(999*time.Millisecond), 10*time.Millisecond); !reflect.DeepEqual(got, slow) {
		t.Errorf("999 ms later the threshold had already moved: classed %v, want %v", got, slow)
	}
	// ...and a second after the first read it is the new one.
	if got := finishAt("c", t0.Add(time.Second), 10*time.Millisecond); !reflect.DeepEqual(got, fine) {
		t.Errorf("a second later the threshold had not moved: classed %v, want %v", got, fine)
	}
	if ns, samples := p99.At(t0.Add(time.Second)); samples != 10100 || ns < (99*time.Millisecond).Nanoseconds() {
		t.Errorf("cached window reads p99=%d ns over %d samples, want ≈100 ms over 10100", ns, samples)
	}
	// A clock that stepped backwards re-reads instead of waiting to catch up.
	h.Record(time.Millisecond)
	if _, samples := p99.At(t0.Add(-time.Hour)); samples != 10101 {
		t.Errorf("after the clock stepped back the window reads %d samples, want 10101", samples)
	}
}

// TestFlightRecorderConcurrentCompleteAndRead completes requests from many
// goroutines — each still appending to its tree, as a canceled hedge loser
// does after its request finished — while others read every view. Run with
// -race to make this meaningful.
func TestFlightRecorderConcurrentCompleteAndRead(t *testing.T) {
	h := NewUnregisteredHistogram("test_concurrent_seconds", "test")
	p99 := h.WindowQuantile(0.99)
	rec := NewFlightRecorder("n", 16, func(now time.Time) int64 {
		ns, _ := p99.At(now)
		return ns
	})
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rr := range rec.Class(ClassRecent, 0) {
					_ = rr.Root.Find("late")
				}
				_ = rec.ByTraceID("w3-7")
				_ = rec.Dump()
				_ = rec.ClassCounts()
			}
		}()
	}
	var writersDone sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersDone.Add(1)
		go func(w int) {
			defer writersDone.Done()
			for i := 0; i < perWriter; i++ {
				total := time.Duration(1+i%7) * time.Millisecond
				h.Record(total)
				tr := NewTrace(fmt.Sprintf("w%d-%d", w, i), "request")
				leg := tr.Root().StartChild("shard0_leg")
				leg.SetAttr("hedged", "true")
				tr.Root().EndIn(total)
				rec.Complete(tr, total, Outcome{Status: 200})
				leg.SetAttr("winner", "true")
				tr.Root().StartChild("late").End()
				leg.EndIn(total)
			}
		}(w)
	}
	writersDone.Wait()
	close(stop)
	wg.Wait()
	if got := rec.Recorded(); got != writers*perWriter {
		t.Fatalf("recorded %d requests, want %d", got, writers*perWriter)
	}
	if got := len(rec.Class(ClassRecent, 0)); got != 16 {
		t.Fatalf("recent ring holds %d records, want its depth 16", got)
	}
}
