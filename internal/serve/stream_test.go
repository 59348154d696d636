package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	apknn "repro"
	"repro/internal/obs"
)

// streamClient is a Client whose requests travel as frames.
func streamClient(url string) (*Client, *StreamTransport) {
	tr := &StreamTransport{}
	return &Client{BaseURL: url, Stream: tr}, tr
}

// eventually polls cond, which some other goroutine is about to make true.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// leavingIndex is a blockingIndex that also says when a Search has returned.
type leavingIndex struct {
	*blockingIndex
	left chan struct{}
}

func (l *leavingIndex) Search(ctx context.Context, queries []apknn.Vector, k int) ([][]apknn.Neighbor, error) {
	defer func() { l.left <- struct{}{} }()
	return l.blockingIndex.Search(ctx, queries, k)
}

// outcome is what one Client exchange comes to, as TestStreamTransportMatchesHTTP
// compares it between paths.
type outcome struct {
	body   string
	apiErr APIError
	err    string // any other error's text
}

func exchangeOutcome(ctx context.Context, c *Client, method, path, contentType string, body []byte) outcome {
	reply, err := c.call(ctx, method, path, contentType, body, new(bytes.Buffer))
	var apiErr *APIError
	switch {
	case err == nil:
		return outcome{body: string(reply)}
	case errors.As(err, &apiErr):
		return outcome{apiErr: *apiErr}
	}
	return outcome{err: err.Error()}
}

// failingTransport is an http.RoundTripper that fails every request with
// err: what http.Client makes of a transport's failure, to compare the
// stream path's errors with.
type failingTransport struct{ err error }

func (f failingTransport) RoundTrip(*http.Request) (*http.Response, error) { return nil, f.err }

// TestStreamTransportMatchesHTTP holds a Client writing frames on a
// StreamTransport to the answers the same Client gets over plain HTTP, for
// every status a shard answers a leg with: identical 200 bodies, identical
// *APIErrors (Retry-After in both forms), request ID and trace context
// arriving, transport failures worded as http.Client words them, and a
// stream that fails or is canceled never going back to the pool. The
// refusals under /refuse come from a handler wrapped around the Server's: a
// frame must reach it as an HTTP request does.
func TestStreamTransportMatchesHTTP(t *testing.T) {
	const dim = 16
	ds := apknn.RandomDataset(81, 300, dim)
	live, err := apknn.OpenLive(ds, apknn.WithBackend(apknn.Fast), apknn.WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	srv := New(live, Config{Dim: dim, NodeID: "match-node"})
	inner := srv.Handler()
	until := time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)
	holding, release := make(chan struct{}), make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/refuse":
			status, _ := strconv.Atoi(r.URL.Query().Get("status"))
			w.Header().Set("Retry-After", "7")
			if r.URL.Query().Get("form") == "date" {
				w.Header().Set("Retry-After", until)
			}
			WriteError(w, status, "refused")
			return
		case "/hold": // answers once released, or not at all if its caller hangs up
			holding <- struct{}{}
			select {
			case <-release:
				WriteJSON(w, http.StatusOK, struct{}{})
			case <-r.Context().Done():
			}
			return
		case "/break": // drops the connection without an answer
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	parked := newBlockingIndex()
	slow := New(parked, Config{Dim: dim, MaxInFlight: 1})
	tslow := httptest.NewServer(slow.Handler())
	defer tslow.Close()
	defer func() {
		close(parked.release)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, s := range []*Server{srv, slow} {
			if err := s.Close(ctx); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	}()

	plain := &http.Transport{}
	defer plain.CloseIdleConnections()
	framed := &StreamTransport{}
	defer framed.CloseIdleConnections()
	overHTTP := func(base string) *Client { return &Client{BaseURL: base, HTTPClient: &http.Client{Transport: plain}} }
	overFrames := func(base string) *Client { return &Client{BaseURL: base, Stream: framed} }
	// same runs one exchange on both paths and returns HTTP's outcome after
	// holding the frames' to it.
	same := func(t *testing.T, base, method, path, contentType string, body []byte) outcome {
		t.Helper()
		want := exchangeOutcome(context.Background(), overHTTP(base), method, path, contentType, body)
		got := exchangeOutcome(context.Background(), overFrames(base), method, path, contentType, body)
		if want.err != "" || got.err != "" {
			t.Fatalf("HTTP failed with %q, frames with %q", want.err, got.err)
		}
		// An HTTP-date is a delay from whenever it is read.
		if d := got.apiErr.RetryAfter - want.apiErr.RetryAfter; d > time.Second || d < -time.Second {
			t.Errorf("frames read Retry-After as %v, HTTP as %v", got.apiErr.RetryAfter, want.apiErr.RetryAfter)
		}
		got.apiErr.RetryAfter = want.apiErr.RetryAfter
		if got != want {
			t.Errorf("frames answered %+v\nHTTP answered   %+v", got, want)
		}
		return want
	}

	q := ds.At(7)
	packed, err := appendPackedRequest(nil, 3, 0, []apknn.Vector{q})
	if err != nil {
		t.Fatal(err)
	}
	timed, err := appendPackedRequest(nil, 3, 30*time.Millisecond, []apknn.Vector{q})
	if err != nil {
		t.Fatal(err)
	}
	search := func(v apknn.Vector) []byte {
		b, err := json.Marshal(SearchRequest{Query: v.String(), K: 3})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range []struct {
		name, base, method, path, contentType string
		body                                  []byte
		want                                  int
		retryAfter                            time.Duration // 0: none; time.Hour: the HTTP-date form
	}{
		{"200_json", ts.URL, "POST", "/v1/search", "application/json", search(q), 200, 0},
		{"200_packed", ts.URL, "POST", "/v1/search", PackedMediaType, packed, 200, 0},
		{"200_get", ts.URL, "GET", "/healthz", "", nil, 200, 0},
		{"400", ts.URL, "POST", "/v1/search", "application/json", search(apknn.RandomQueries(82, 1, dim+1)[0]), 400, 0},
		{"404", ts.URL, "POST", "/v1/delete", "application/json", []byte(`{"id":99999}`), 404, 0},
		{"413", ts.URL, "POST", "/v1/search", "application/json", bytes.Repeat([]byte{' '}, MaxBodyBytes+1), 413, 0},
		{"415", ts.URL, "POST", "/v1/insert", PackedMediaType, packed, 415, 0},
		{"429_seconds", ts.URL, "POST", "/refuse?status=429", PackedMediaType, packed, 429, 7 * time.Second},
		{"429_date", ts.URL, "POST", "/refuse?status=429&form=date", PackedMediaType, packed, 429, time.Hour},
		{"503", ts.URL, "POST", "/refuse?status=503", "application/json", search(q), 503, 7 * time.Second},
		{"503_date", ts.URL, "POST", "/refuse?status=503&form=date", PackedMediaType, packed, 503, time.Hour},
		{"504", tslow.URL, "POST", "/v1/search", PackedMediaType, timed, 504, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := same(t, c.base, c.method, c.path, c.contentType, c.body)
			if status := got.apiErr.Status; status != 0 && status != c.want || status == 0 && c.want != 200 {
				t.Fatalf("HTTP answered %+v, the case wants %d", got, c.want)
			}
			if c.want == 200 && got.body == "" {
				t.Error("an empty 200 body")
			}
			if c.want != 200 && got.apiErr.Message == "" {
				t.Errorf("a %d without its error text", c.want)
			}
			switch ra := got.apiErr.RetryAfter; {
			case c.retryAfter == time.Hour && (ra <= 59*time.Minute || ra > time.Hour):
				t.Errorf("Retry-After %s read as %v", until, ra)
			case c.retryAfter != time.Hour && ra != c.retryAfter:
				t.Errorf("Retry-After read as %v, want %v", ra, c.retryAfter)
			}
		})
	}

	t.Run("429", func(t *testing.T) {
		// One search parked in the backend holds the only admission slot.
		for len(parked.entered) > 0 {
			<-parked.entered // the 504 case's searches
		}
		held := make(chan error, 1)
		go func() {
			_, err := overFrames(tslow.URL).Search(context.Background(), q, 3)
			held <- err
		}()
		<-parked.entered
		if got := same(t, tslow.URL, "POST", "/v1/search", PackedMediaType, packed); got.apiErr.Status != 429 || got.apiErr.RetryAfter <= 0 {
			t.Errorf("HTTP answered %+v, want a 429 with Retry-After", got)
		}
		parked.release <- struct{}{}
		if err := <-held; err != nil {
			t.Errorf("the parked search: %v", err)
		}
	})

	t.Run("propagation", func(t *testing.T) {
		// The node files a leg's record under the caller's trace ID, with the
		// request ID and the parent span the router stitches it under.
		viewer := overHTTP(ts.URL)
		for name, c := range map[string]*Client{"http": overHTTP(ts.URL), "frames": overFrames(ts.URL)} {
			rid, tid, sid := "rid-"+name, "trace-"+name, obs.NewSpanID()
			ctx := obs.WithTraceContext(obs.WithRequestID(context.Background(), rid), tid, sid)
			if _, err := c.Search(ctx, q, 3); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rec := pollTraces(t, viewer, url.Values{"trace_id": {tid}}).Traces[0]
			if rec.Root.Attr("request_id") != rid || rec.Root.Attr("parent_span_id") != sid.String() || rec.Node != "match-node" {
				t.Errorf("%s: the node filed %s as %+v (attrs %v), want request_id %s, parent_span_id %s",
					name, tid, rec, rec.Root.Attrs, rid, sid)
			}
		}
	})

	// Failures of the stream itself: transport errors, not answers, worded
	// as http.Client words a transport's.
	transportErr := func(t *testing.T, err error, prefix string) {
		t.Helper()
		var apiErr *APIError
		var urlErr *url.Error
		if err == nil || errors.As(err, &apiErr) || !errors.As(err, &urlErr) || !strings.HasPrefix(err.Error(), prefix) {
			t.Errorf("returned %v, want a transport error starting %q", err, prefix)
		}
	}
	c := overFrames(ts.URL)
	t.Run("canceled_discards_stream", func(t *testing.T) {
		framed.CloseIdleConnections()
		if _, err := c.Health(context.Background()); err != nil {
			t.Fatal(err)
		}
		if n := framed.IdleConnections(); n != 1 {
			t.Fatalf("%d streams idle after one exchange, want 1", n)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-holding
			cancel()
		}()
		err := c.Do(ctx, "POST", "/hold", struct{}{}, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled leg returned %v, want context.Canceled", err)
		}
		transportErr(t, err, `Post "`+ts.URL+`/hold": context canceled`)
		if n := framed.IdleConnections(); n != 0 {
			t.Errorf("%d streams idle after a canceled leg, want 0: its stream is discarded", n)
		}
	})
	t.Run("broken_closes_siblings", func(t *testing.T) {
		framed.CloseIdleConnections()
		// A leg in flight holds one stream, so the next dials a second: two
		// idle once both are done.
		held := make(chan error, 1)
		go func() { held <- c.Do(context.Background(), "POST", "/hold", struct{}{}, nil) }()
		<-holding
		if _, err := c.Health(context.Background()); err != nil {
			t.Fatal(err)
		}
		release <- struct{}{}
		if err := <-held; err != nil {
			t.Fatal(err)
		}
		if n := framed.IdleConnections(); n != 2 {
			t.Fatalf("%d streams idle, want 2", n)
		}
		err := c.Do(context.Background(), "POST", "/break", struct{}{}, nil)
		transportErr(t, err, `Post "`+ts.URL+`/break": serve: stream to `)
		if n := framed.IdleConnections(); n != 0 {
			t.Errorf("%d streams idle after one broke, want 0: its siblings are closed with it", n)
		}
	})
	t.Run("scheme", func(t *testing.T) {
		// A password with characters the URL escapes is masked all the same.
		base := "https://user:p%40ss%2F%25@" + strings.TrimPrefix(ts.URL, "http://")
		_, err := overFrames(base).Health(context.Background())
		refusal := errors.New(`serve: stream transport speaks http only, not "https"`)
		_, want := (&Client{BaseURL: base, HTTPClient: &http.Client{Transport: failingTransport{refusal}}}).Health(context.Background())
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("an https BaseURL returned %v, http.Client would say %v", err, want)
		}
		if !strings.Contains(err.Error(), "user:***@") || strings.Contains(err.Error(), "p%40ss") || strings.Contains(err.Error(), "p@ss") {
			t.Errorf("the password is not masked: %v", err)
		}
	})
}

// TestStreamHangupCancelsBackend: a leg whose context ends hangs up its
// stream, and the node, seeing that as net/http would, cancels the frame's
// request — the stalled backend call returns and the admission slot frees.
func TestStreamHangupCancelsBackend(t *testing.T) {
	idx := &leavingIndex{newBlockingIndex(), make(chan struct{}, 1)}
	srv := New(idx, Config{MaxInFlight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, tr := streamClient(ts.URL)
	q := apknn.RandomQueries(83, 1, 8)[0]

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.Search(ctx, q, 1)
		done <- err
	}()
	<-idx.entered
	if n := srv.streams.count(); n != 1 {
		t.Fatalf("%d streams open with a leg in flight, want 1", n)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leg returned %v, want context.Canceled", err)
	}
	select {
	case <-idx.left:
	case <-time.After(5 * time.Second):
		t.Fatal("the backend call outlived its caller's hang-up")
	}
	eventually(t, "the admission slot is free", func() bool { return srv.inflight.Load() == 0 })
	eventually(t, "the hung-up stream is gone", func() bool { return srv.streams.count() == 0 })
	if n := tr.IdleConnections(); n != 0 {
		t.Errorf("%d streams pooled after a canceled leg, want 0: the connection is discarded", n)
	}
	// The slot really is free: the next leg is admitted and answered.
	close(idx.release)
	if _, err := client.Search(context.Background(), q, 1); err != nil {
		t.Fatalf("search after the hang-up: %v", err)
	}
	<-idx.left
	closeCtx, cancelClose := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelClose()
	if err := srv.Close(closeCtx); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDrainOnClose: Server.Close closes an idle stream at once, lets
// the frame in flight on another be answered, and returns; with a context
// too short for that frame it returns on time and cuts the stream instead.
func TestStreamDrainOnClose(t *testing.T) {
	boot := func(t *testing.T) (*blockingIndex, *Server, *Client, chan error) {
		idx := newBlockingIndex()
		srv := New(idx, Config{})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		client, tr := streamClient(ts.URL)
		t.Cleanup(tr.CloseIdleConnections)
		inflight := make(chan error, 1)
		go func() {
			_, err := client.Search(context.Background(), apknn.RandomQueries(84, 1, 8)[0], 1)
			inflight <- err
		}()
		<-idx.entered
		// The first stream is busy, so this dials a second and leaves it idle.
		if _, err := client.Health(context.Background()); err != nil {
			t.Fatal(err)
		}
		if n := srv.streams.count(); n != 2 {
			t.Fatalf("%d streams open, want 2 (one answering, one idle)", n)
		}
		return idx, srv, client, inflight
	}
	t.Run("drains", func(t *testing.T) {
		idx, srv, client, inflight := boot(t)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closed := make(chan error, 1)
		go func() { closed <- srv.Close(ctx) }()
		eventually(t, "the idle stream is closed", func() bool { return srv.streams.count() == 1 })
		select {
		case err := <-closed:
			t.Fatalf("Close returned (%v) with a frame still in flight", err)
		default:
		}
		close(idx.release)
		if err := <-inflight; err != nil {
			t.Errorf("the in-flight frame was not answered: %v", err)
		}
		if err := <-closed; err != nil {
			t.Errorf("Close: %v", err)
		}
		if n := srv.streams.count(); n != 0 {
			t.Errorf("%d streams open after Close", n)
		}
		// The pooled stream is the one Close shut: using it fails, and as a
		// failure of the transport, not an answer.
		_, err := client.Health(context.Background())
		var apiErr *APIError
		if err == nil || errors.As(err, &apiErr) {
			t.Errorf("a leg on the closed idle stream returned %v, want a transport error", err)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		idx, srv, _, inflight := boot(t)
		defer close(idx.release)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		if err := srv.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Close returned %v, want its context's deadline", err)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("Close took %v past a 50ms context", took)
		}
		if err := <-inflight; err == nil {
			t.Error("the frame outlived a drain that ran out of time and was still answered")
		}
		eventually(t, "the cut stream's goroutine is gone", func() bool { return srv.streams.count() == 0 })
	})
}

// FuzzStreamFrame feeds arbitrary bytes to both ends' frame readers and
// parsers as a connection would deliver them. Neither may panic, hold more
// memory than a small multiple of what arrived whatever a length claims, or
// accept a frame whose counts reach past it; and a frame that parses
// re-encodes to itself.
func FuzzStreamFrame(f *testing.F) {
	frame := func(build func(b []byte) []byte) []byte {
		b := build([]byte{0, 0, 0, 0})
		sealFrame(b)
		return b
	}
	h := http.Header{"Content-Type": {PackedMediaType}, "X-Request-Id": {"abc"}}
	request := frame(func(b []byte) []byte {
		b = appendFramePairs(appendStr(appendStr(b, "POST"), "/v1/search?x=1"), h)
		return append(b, "APQ\x01body"...)
	})
	reply := frame(func(b []byte) []byte {
		b = appendFramePairs(binary.LittleEndian.AppendUint32(b, 429), http.Header{"Retry-After": {"1", "2"}})
		return append(b, `{"error":"x"}`...)
	})
	f.Add(request)
	f.Add(reply)
	f.Add(request[:len(request)-3])                                    // declared length larger than the bytes sent
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 1<<31), 1))     // oversized
	f.Add(frame(func(b []byte) []byte { return appendStr(b, "GET") })) // cut off after the method
	f.Add(frame(func(b []byte) []byte {                                // header count past the frame
		return binary.LittleEndian.AppendUint32(appendStr(appendStr(b, "GET"), "/"), 1<<30)
	}))
	f.Add(frame(func(b []byte) []byte { // a value's length past the frame
		b = binary.LittleEndian.AppendUint32(appendStr(appendStr(b, "GET"), "/"), 1)
		return binary.LittleEndian.AppendUint32(appendStr(b, "A"), 1<<20)
	}))
	f.Add(frame(func(b []byte) []byte { return binary.LittleEndian.AppendUint32(b, 7) })) // status 7
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, wire []byte) {
		br := bufio.NewReader(bytes.NewReader(wire))
		n, err := readFrameLen(br)
		if err != nil {
			return
		}
		if len(wire) < 4 {
			t.Fatalf("a length read out of %d bytes", len(wire))
		}
		buf, err := readFrameBytes(br, nil, min(n, maxRequestFrame))
		if limit := 2*len(wire) + frameChunk; cap(buf) > limit {
			t.Fatalf("a declared length of %d over %d bytes sent grew the buffer to %d", n, len(wire), cap(buf))
		}
		if err != nil {
			if n <= len(wire)-4 {
				t.Fatalf("frame of %d bytes, %d sent: %v", n, len(wire)-4, err)
			}
			return
		}
		if method, uri, header, body, err := parseRequestFrame(buf); err == nil {
			if len(buf)-len(body) > maxFrameHead {
				t.Fatalf("a head of %d bytes was accepted", len(buf)-len(body))
			}
			again := appendFramePairs(appendStr(appendStr(nil, method), string(uri)), header)
			m2, u2, h2, b2, err := parseRequestFrame(append(again, body...))
			if err != nil || m2 != method || !bytes.Equal(u2, uri) || !bytes.Equal(b2, body) || !sameHeader(h2, header) {
				t.Fatalf("request frame did not survive re-encoding: %v", err)
			}
		}
		if status, pairs, body, err := parseReplyFrame(buf); err == nil {
			if status < 100 || status > 999 {
				t.Fatalf("status %d was accepted", status)
			}
			header := headerOf(pairs)
			again := appendFramePairs(binary.LittleEndian.AppendUint32(nil, uint32(status)), header)
			s2, p2, b2, err := parseReplyFrame(append(again, body...))
			if err != nil || s2 != status || !bytes.Equal(b2, body) || !sameHeader(headerOf(p2), header) {
				t.Fatalf("reply frame did not survive re-encoding: %v", err)
			}
			if got, want := string(pairValue(pairs, "Retry-After")), header.Get("Retry-After"); got != want {
				t.Fatalf("pairValue found Retry-After %q, the header %q", got, want)
			}
		}
	})
}

func sameHeader(a, b http.Header) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv := b[k]
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}
