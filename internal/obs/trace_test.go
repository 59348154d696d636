package obs

import (
	"context"
	"regexp"
	"testing"
	"time"
)

func TestNewRequestID(t *testing.T) {
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	a, b := NewRequestID(), NewRequestID()
	if !hex16.MatchString(a) || !hex16.MatchString(b) {
		t.Fatalf("malformed request IDs %q, %q", a, b)
	}
	if a == b {
		t.Fatalf("two fresh request IDs collided: %q", a)
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if id := RequestID(ctx); id != "" {
		t.Fatalf("empty context has request ID %q", id)
	}
	ctx = WithRequestID(ctx, "deadbeefdeadbeef")
	if id := RequestID(ctx); id != "deadbeefdeadbeef" {
		t.Fatalf("round-trip gave %q", id)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Root().ObserveChild("anything", time.Second) // must not panic
	if tr.Root() != nil {
		t.Fatal("nil trace has a root span")
	}
	if TraceFrom(context.Background()) != nil {
		t.Fatal("empty context returned a trace")
	}
}

func TestTraceContext(t *testing.T) {
	tr := NewTrace("abc123", "request")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace did not round-trip through context")
	}
	if CurrentSpan(ctx) != tr.Root() {
		t.Fatal("a traced context's current span is not the trace root")
	}
}
