package obs

import (
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
)

// refSpan is the reference the arena must agree with: a span as a heap
// node holding its own attrs and children, the shape the span tree had
// before it became an arena. Attached spans are shared pointers.
type refSpan struct {
	name     string
	dur      time.Duration
	ended    bool
	wall     bool // ended by End: the duration is the clock's
	attrs    map[string]string
	children []*refSpan
}

func (r *refSpan) child(name string) *refSpan {
	c := &refSpan{name: name}
	r.children = append(r.children, c)
	return c
}

func (r *refSpan) set(key, value string) {
	if r.attrs == nil {
		r.attrs = make(map[string]string)
	}
	r.attrs[key] = value
}

func (r *refSpan) end(d time.Duration, wall bool) {
	if !r.ended {
		r.dur, r.ended, r.wall = d, true, wall
	}
}

func (r *refSpan) hedgeWon() bool {
	if r.attrs["hedged"] == "true" && r.attrs["winner"] == "true" {
		return true
	}
	for _, c := range r.children {
		if c.hedgeWon() {
			return true
		}
	}
	return false
}

// matches compares an arena's wire tree with the reference. Durations the
// clock decides (End, or still running) and start times must only be
// plausible: no later than now, no earlier than the program's start less
// the longest observed duration.
func (r *refSpan) matches(t *testing.T, path string, ws *WireSpan, from, to time.Time) {
	t.Helper()
	path += "/" + r.name
	if ws == nil || ws.Name != r.name {
		t.Fatalf("%s: wire span %+v", path, ws)
	}
	if !reflect.DeepEqual(ws.Attrs, r.attrs) {
		t.Fatalf("%s: attrs %v, want %v", path, ws.Attrs, r.attrs)
	}
	if r.ended && !r.wall && ws.DurNS != int64(r.dur) {
		t.Fatalf("%s: dur %d, want %d", path, ws.DurNS, r.dur)
	}
	if (!r.ended || r.wall) && (ws.DurNS < 0 || ws.DurNS > int64(to.Sub(from)+time.Second)) {
		t.Fatalf("%s: clock duration %d out of range", path, ws.DurNS)
	}
	if ws.StartUnixNS < from.Add(-time.Second).UnixNano() || ws.StartUnixNS > to.UnixNano() {
		t.Fatalf("%s: start %d outside [%d, %d]", path, ws.StartUnixNS, from.UnixNano(), to.UnixNano())
	}
	if len(ws.Children) != len(r.children) {
		t.Fatalf("%s: %d children, want %d", path, len(ws.Children), len(r.children))
	}
	for i, c := range r.children {
		c.matches(t, path, ws.Children[i], from, to)
	}
}

// FuzzSpanArenaMatchesReference runs random programs against one trace and
// the reference tree: children started, observed and attached (one shared
// subtree under several parents), string, int and bool attrs on a few keys
// so they overwrite, End and EndIn (a second end ignored), more spans than
// the arena holds inline, and the trace completed into a recorder partway,
// after which the program goes on as a canceled hedge loser does. Every
// read — Wire, the recorder's record, its hedge class — must agree.
func FuzzSpanArenaMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 2, 2, 1, 0, 5, 1, 0x92, 5, 1, 0x93, 8, 0, 0, 6, 1, 0})
	long := make([]byte, 0, 3*60)
	for i := 0; i < 60; i++ {
		long = append(long, byte(i%9), byte(i*7), byte(i*13))
	}
	f.Add(long)
	f.Add([]byte{2, 0, 0, 2, 0, 0, 0, 0, 3, 2, 2, 0, 3, 1, 0x50, 4, 2, 0x21, 8, 0, 0, 7, 2, 9, 6, 0, 0})
	names := [...]string{"leg", "merge", "queue_wait", "kernel_scan"}
	keys := [...]string{"a", "b", "hedged", "winner", "node"}
	values := [...]string{"true", "false", "x", ""}
	f.Fuzz(func(t *testing.T, prog []byte) {
		from := time.Now()
		shared, sharedRef := NewSpan("backend"), &refSpan{name: "backend"}
		shared.SetInt("flush_size", 2)
		sharedRef.set("flush_size", "2")
		shared.StartChild("kernel_scan").EndIn(5 * time.Microsecond)
		sharedRef.child("kernel_scan").end(5*time.Microsecond, false)
		shared.EndIn(7 * time.Microsecond)
		sharedRef.end(7*time.Microsecond, false)

		tr := NewTrace("fuzz", "fuzz.request")
		spans, refs := []*Span{tr.Root()}, []*refSpan{{name: "fuzz.request"}}
		rec := NewFlightRecorder("n", 4, 0, nil)
		completed, wantHedge := false, false
		for i := 0; i+2 < len(prog); i += 3 {
			a, b := int(prog[i+1]), prog[i+2]
			sp, ref := spans[a%len(spans)], refs[a%len(refs)]
			d := time.Duration(b) * time.Microsecond
			key := keys[int(b)%len(keys)]
			switch prog[i] % 9 {
			case 0:
				spans = append(spans, sp.StartChild(names[b%4]))
				refs = append(refs, ref.child(names[b%4]))
			case 1:
				spans = append(spans, sp.ObserveChild(names[b%4], d))
				c := ref.child(names[b%4])
				c.end(d, false)
				refs = append(refs, c)
			case 2:
				sp.AttachChild(shared)
				ref.children = append(ref.children, sharedRef)
			case 3:
				v := values[b>>4%4]
				sp.SetAttr(key, v)
				ref.set(key, v)
			case 4:
				sp.SetInt(key, int64(b)-128)
				ref.set(key, strconv.Itoa(int(b)-128))
			case 5:
				sp.SetBool(key, b&0x10 != 0)
				ref.set(key, strconv.FormatBool(b&0x10 != 0))
			case 6:
				sp.End()
				ref.end(0, true)
			case 7:
				sp.EndIn(d)
				ref.end(d, false)
			case 8:
				if !completed {
					rec.Complete(tr, time.Since(from), Outcome{Status: 200})
					completed, wantHedge = true, refs[0].hedgeWon()
				}
			}
		}
		to := time.Now()
		refs[0].matches(t, "", tr.Root().Wire(), from, to)
		if !completed {
			return
		}
		got := rec.ByTraceID("fuzz")
		if len(got) != 1 {
			t.Fatalf("recorder holds %d records of the trace", len(got))
		}
		refs[0].matches(t, "", got[0].Root, from, to)
		if hedge := rec.ClassCounts()[ClassHedge] == 1; hedge != wantHedge {
			t.Fatalf("classed hedge %v, want %v", hedge, wantHedge)
		}
	})
}

// TestTraceInlineOverflow: a trace past its inline capacity keeps every
// span and attr, in order, and handles taken before a chunk was added stay
// live.
func TestTraceInlineOverflow(t *testing.T) {
	tr := NewTrace("big", "request")
	root := tr.Root()
	first := root.StartChild("c0")
	for i := 1; i < 100; i++ {
		c := root.StartChild("c" + strconv.Itoa(i))
		c.SetInt("i", int64(i))
		c.EndIn(time.Duration(i))
	}
	first.SetAttr("late", "yes")
	first.EndIn(time.Millisecond)
	w := root.Wire()
	if len(w.Children) != 100 {
		t.Fatalf("%d children, want 100", len(w.Children))
	}
	for i, c := range w.Children {
		if c.Name != "c"+strconv.Itoa(i) {
			t.Fatalf("child %d is %s", i, c.Name)
		}
		if i > 0 && (c.Attr("i") != strconv.Itoa(i) || c.DurNS != int64(i)) {
			t.Fatalf("child %d wired %+v", i, c)
		}
	}
	if w.Children[0].Attr("late") != "yes" || w.Children[0].DurNS != int64(time.Millisecond) {
		t.Fatalf("a handle from before the overflow lost its writes: %+v", w.Children[0])
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		ivs  []interval
		d    time.Duration
		want time.Duration
	}{
		{nil, 10, 0},
		{[]interval{{2, 5}}, 10, 3},
		{[]interval{{4, 8}, {2, 5}}, 10, 6},
		{[]interval{{2, 3}, {0, 10}}, 10, 10},
		{[]interval{{-3, 2}}, 10, 2},
		{[]interval{{8, 15}}, 10, 2},
		{[]interval{{3, 4}, {1, 2}}, 10, 2},
		{[]interval{{12, 15}, {5, 5}}, 10, 0},
		{[]interval{{1, 9}, {2, 3}, {4, 12}}, 10, 9},
	} {
		if got := covered(append([]interval(nil), c.ivs...), c.d); got != c.want {
			t.Errorf("covered(%v, %d) = %d, want %d", c.ivs, c.d, got, c.want)
		}
	}
}

// TestTraceUnattributed: a request root's End records the time its direct
// children leave uncovered — an observed child, a shared subtree attached
// from its own arena, and a child still running, which covers the root to
// its end — once, and a detached root records nothing.
func TestTraceUnattributed(t *testing.T) {
	member := unattributed.With("test.unattributed")
	before := member.Snapshot()
	tr := NewTrace("u", "test.unattributed")
	tr.Start = tr.Start.Add(-100 * time.Millisecond)
	root := tr.Root()
	root.ObserveChild("queue_wait", 30*time.Millisecond) // ≈[70, 100] ms
	shared := NewSpan("backend")
	shared.t.Start = tr.Start.Add(50 * time.Millisecond)
	shared.EndIn(10 * time.Millisecond) // [50, 60] ms
	root.AttachChild(shared)
	root.StartChild("loser") // ≈[100, 120] ms, never ended
	root.EndIn(120 * time.Millisecond)
	root.End()
	after := member.Snapshot()
	if n := after.Count - before.Count; n != 1 {
		t.Fatalf("two ends recorded %d samples, want 1", n)
	}
	if got := time.Duration(after.Sum - before.Sum); got < 59*time.Millisecond || got > 61*time.Millisecond {
		t.Fatalf("unattributed %v, want ≈60ms (120 less [50,60] and [70,120])", got)
	}

	detached := unattributed.With("test.detached")
	NewSpan("test.detached").End()
	if n := detached.Snapshot().Count; n != 0 {
		t.Fatalf("a detached root recorded %d samples", n)
	}
}

// TestTraceSharedAttachConcurrent: one flush's span, attached by reference
// to the trees of many requests that end, complete and are read from
// different goroutines at once — every read finds the whole shared subtree,
// and every root's end reads its interval. Run with -race to make this
// meaningful.
func TestTraceSharedAttachConcurrent(t *testing.T) {
	shared := NewSpan("backend")
	shared.SetInt("flush_size", 8)
	shared.StartChild("kernel_scan").EndIn(time.Microsecond)
	shared.EndIn(2 * time.Microsecond)
	rec := NewFlightRecorder("n", 16, 0, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr := NewTrace(strconv.Itoa(w)+"-"+strconv.Itoa(i), "test.shared")
				tr.Root().ObserveChild("queue_wait", time.Microsecond)
				tr.Root().AttachChild(shared)
				tr.Root().EndIn(5 * time.Microsecond)
				rec.Complete(tr, 5*time.Microsecond, Outcome{Status: 200})
				for _, r := range rec.Class(ClassRecent, 4) {
					if b := r.Root.Find("backend"); b == nil || b.Attr("flush_size") != "8" || b.Find("kernel_scan") == nil {
						t.Errorf("record %s lost the shared flush: %+v", r.TraceID, b)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
