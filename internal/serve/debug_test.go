package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	apknn "repro"
	"repro/internal/obs"
)

// pollTraces retries a /v1/debug/traces lookup until the record appears:
// the recorder completes in a deferred hook that can run a beat after the
// response body reaches the client.
func pollTraces(t *testing.T, c *Client, query url.Values) *DebugTracesResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		dt, err := c.DebugTraces(ctx, query)
		if err != nil {
			t.Fatal(err)
		}
		if len(dt.Traces) > 0 {
			return dt
		}
		select {
		case <-ctx.Done():
			t.Fatalf("trace %v never reached the flight recorder", query)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestDebugTracesSpanTree drives one search through the full serving stack
// on the CPU backend and asserts the flight recorder serves its complete
// span tree: queue wait and flush assembly from the micro-batcher, the
// shared backend flush span, and the kernel scan nested inside it.
func TestDebugTracesSpanTree(t *testing.T) {
	ds := apknn.RandomDataset(11, 1500, 32)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.CPU))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx, Config{Dim: ds.Dim(), NodeID: "debug-node"})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	client := &Client{BaseURL: ts.URL}

	q := apknn.RandomQueries(12, 1, 32)[0]
	ctx := obs.WithRequestID(context.Background(), "debug-e2e-1")
	if _, err := client.Search(ctx, q, 3); err != nil {
		t.Fatal(err)
	}

	dt := pollTraces(t, client, url.Values{"trace_id": {"debug-e2e-1"}})
	if dt.Node != "debug-node" || dt.Recorded < 1 {
		t.Fatalf("response header block = %+v", dt)
	}
	rec := dt.Traces[0]
	if rec.TraceID != "debug-e2e-1" || rec.Status != 200 {
		t.Fatalf("record = %+v", rec)
	}
	root := rec.Root
	if root.Name != "serve.search" || root.Attr("node") != "debug-node" {
		t.Fatalf("root = %+v", root)
	}
	for _, name := range []string{"queue_wait", "flush_assembly", "backend", "kernel_scan"} {
		if root.Find(name) == nil {
			t.Errorf("span %q missing from tree %+v", name, root)
		}
	}
	// The kernel scan must be nested inside the backend flush span, not a
	// root-level sibling — nesting is what attributes flush time.
	backend := root.Find("backend")
	if backend == nil || backend.Find("kernel_scan") == nil {
		t.Fatalf("kernel_scan is not a child of backend: %+v", backend)
	}
	if backend.Attr("flush_size") == "" {
		t.Errorf("backend span lost its flush_size attr: %v", backend.Attrs)
	}

	// Class listing and parameter validation.
	ctx2, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if dt, err := client.DebugTraces(ctx2, url.Values{"class": {obs.ClassRecent}}); err != nil || len(dt.Traces) == 0 {
		t.Fatalf("recent listing: %v (%d traces)", err, len(dt.Traces))
	}
	_, err = client.DebugTraces(ctx2, url.Values{"class": {"bogus"}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("bogus class gave %v, want 400", err)
	}
}

// TestDebugTracesShedClassification fills the admission gate and checks a
// 429 lands in the shed ring with its status preserved. The one slot is
// held by a request parked inside a blocking backend, so the refusal does
// not depend on how long a real search takes.
func TestDebugTracesShedClassification(t *testing.T) {
	idx := newBlockingIndex()
	srv := New(idx, Config{MaxInFlight: 1, BatchWindow: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}
	q := apknn.RandomQueries(13, 1, 8)[0]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	parked := make(chan error, 1)
	go func() {
		_, err := client.Search(ctx, q, 3)
		parked <- err
	}()
	select {
	case <-idx.entered:
	case <-ctx.Done():
		t.Fatal("the parked request never reached the backend")
	}
	if _, err := client.Search(ctx, q, 3); !errors.Is(err, ErrSaturated) {
		t.Fatalf("request beside a full gate: %v, want ErrSaturated", err)
	}
	close(idx.release)
	if err := <-parked; err != nil {
		t.Errorf("parked request failed after release: %v", err)
	}

	dt := pollTraces(t, client, url.Values{"class": {obs.ClassShed}})
	if dt.Traces[0].Status != 429 {
		t.Fatalf("shed record = %+v", dt.Traces[0])
	}
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
