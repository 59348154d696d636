package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSanitizeRequestID(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ci-trace-0042", "ci-trace-0042"},
		{"a.b_c-D9", "a.b_c-D9"},
		{"", ""},
		{"with space", "withspace"},
		{"inject=\"x\"\nlevel=ERROR", "injectxlevelERROR"},
		{"\x1b[31mred\x1b[0m", "31mred0m"},
		{"{};'`$()", ""},
		{strings.Repeat("a", 500), strings.Repeat("a", MaxRequestIDLen)},
	}
	for _, c := range cases {
		if got := SanitizeRequestID(c.in); got != c.want {
			t.Errorf("SanitizeRequestID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tid, sid := NewRequestID(), NewSpanID()
	gotTID, gotSID, ok := ParseTraceContext(FormatTraceContext(tid, sid))
	if !ok || gotTID != tid || gotSID != sid {
		t.Fatalf("round-trip gave (%q, %q, %v), want (%q, %q, true)", gotTID, gotSID, ok, tid, sid)
	}
	for _, bad := range []string{"", "no-slash", "/x", "x/", "$()/'`"} {
		if _, _, ok := ParseTraceContext(bad); ok {
			t.Errorf("ParseTraceContext(%q) accepted", bad)
		}
	}
	// Hostile-but-salvageable input sanitizes rather than rejects.
	if tid, sid, ok := ParseTraceContext("ti d/$(sid)"); !ok || tid != "tid" || sid != "sid" {
		t.Fatalf("sanitizing parse gave (%q, %q, %v)", tid, sid, ok)
	}
	ctx := WithTraceContext(context.Background(), tid, sid)
	if gotTID, gotSID, ok := TraceContext(ctx); !ok || gotTID != tid || gotSID != sid {
		t.Fatalf("context round-trip gave (%q, %q, %v)", gotTID, gotSID, ok)
	}
	if _, _, ok := TraceContext(context.Background()); ok {
		t.Fatal("empty context claimed a trace context")
	}
}

// TestSpanNilSafe drives the whole span surface through nil receivers — the
// untraced hot path (apbench, direct library use) runs exactly these no-ops
// per request and must never allocate a tree or panic.
func TestSpanNilSafe(t *testing.T) {
	var sp *Span
	if child := sp.StartChild("x"); child != nil {
		t.Fatalf("nil span spawned child %v", child)
	}
	sp.ObserveChild("x", time.Second)
	sp.AttachChild(NewSpan("y"))
	sp.SetAttr("k", "v")
	sp.End()
	sp.EndIn(time.Second)
	if sp.Wire() != nil {
		t.Fatal("nil span produced a wire tree")
	}
	if CurrentSpan(context.Background()) != nil {
		t.Fatal("empty context has a current span")
	}
	if StartSpan(context.Background(), "x") != nil {
		t.Fatal("StartSpan on empty context allocated")
	}
}

func TestSpanTreeWire(t *testing.T) {
	root := NewSpan("request")
	root.SetAttr("node", "shard0-a")
	q := root.StartChild("queue_wait")
	q.EndIn(2 * time.Millisecond)
	b := root.StartChild("backend")
	k := b.StartChild("kernel_scan")
	k.EndIn(3 * time.Millisecond)
	b.EndIn(5 * time.Millisecond)
	root.EndIn(8 * time.Millisecond)

	w := root.Wire()
	if w.Name != "request" || w.DurNS != (8*time.Millisecond).Nanoseconds() {
		t.Fatalf("root wire = %+v", w)
	}
	if w.Attr("node") != "shard0-a" {
		t.Fatalf("root attrs = %v", w.Attrs)
	}
	if len(w.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(w.Children))
	}
	if got := w.Find("kernel_scan"); got == nil || got.DurNS != (3*time.Millisecond).Nanoseconds() {
		t.Fatalf("kernel_scan = %+v", got)
	}
	var names []string
	var walk func(ws *WireSpan)
	walk = func(ws *WireSpan) {
		names = append(names, ws.Name)
		for _, c := range ws.Children {
			walk(c)
		}
	}
	walk(w)
	if strings.Join(names, ",") != "request,queue_wait,backend,kernel_scan" {
		t.Fatalf("walk order = %v", names)
	}

	// Every Wire call is a deep copy of its own: grafting into one (what
	// the router's stitcher does to a record it read) must reach neither the
	// span tree the recorder retains nor the next reader's copy.
	w.Children[0].Children = append(w.Children[0].Children, &WireSpan{Name: "grafted"})
	w.Children[0].Attrs = map[string]string{"stitch_error": "x"}
	w.Attrs["node"] = "forged"
	again := root.Wire()
	if again.Find("grafted") != nil || again.Children[0].Attr("stitch_error") != "" || again.Attr("node") != "shard0-a" {
		t.Fatal("mutating one wire tree reached the next")
	}
}

// TestSpanConcurrentChildren creates children from many goroutines while a
// reader snapshots — the scatter-legs-vs-debug-endpoint race. Run with
// -race to make this meaningful.
func TestSpanConcurrentChildren(t *testing.T) {
	root := NewSpan("request")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := root.StartChild("leg")
				sp.SetAttr("k", "v")
				sp.EndIn(time.Microsecond)
				_ = root.Wire()
			}
		}()
	}
	wg.Wait()
	if got := len(root.Wire().Children); got != 400 {
		t.Fatalf("recorded %d children, want 400", got)
	}
}
