package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	apknn "repro"
)

// streamClient is a Client whose requests travel as frames.
func streamClient(url string) (*Client, *StreamTransport) {
	tr := &StreamTransport{}
	return &Client{BaseURL: url, HTTPClient: &http.Client{Transport: tr}}, tr
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

// answer is what TestStreamTransportMatchesHTTP compares between transports.
type answer struct {
	status                      int
	body, retryAfter, requestID string
}

func roundTrip(t *testing.T, rt http.RoundTripper, url, contentType, requestID string, body []byte) answer {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("X-Request-ID", requestID)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatalf("%T to %s: %v", rt, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%T to %s: read body: %v", rt, url, err)
	}
	if resp.ContentLength >= 0 && resp.ContentLength != int64(len(raw)) {
		t.Errorf("%T to %s: ContentLength %d, body %d bytes", rt, url, resp.ContentLength, len(raw))
	}
	return answer{resp.StatusCode, string(raw), resp.Header.Get("Retry-After"), resp.Header.Get("X-Request-ID")}
}

// TestStreamTransportMatchesHTTP sends the same request through
// http.Transport and StreamTransport and wants the same answer — status,
// body, Retry-After, X-Request-ID — for every status a shard answers a leg
// with. The 503 comes from a handler wrapped around the Server's: a frame
// must reach it as an HTTP request does.
func TestStreamTransportMatchesHTTP(t *testing.T) {
	const dim = 16
	ds := apknn.RandomDataset(81, 300, dim)
	live, err := apknn.OpenLive(ds, apknn.WithBackend(apknn.Fast), apknn.WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	srv := New(live, Config{Dim: dim})
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Sick") != "" {
			w.Header().Set("Retry-After", "7")
			WriteError(w, http.StatusServiceUnavailable, "sick")
			return
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
		name        string
		url         string
		contentType string
		body        []byte
		want        int
	}{
		{"200_json", ts.URL + "/v1/search", "application/json", search(q), 200},
		{"200_packed", ts.URL + "/v1/search", PackedMediaType, packed, 200},
		{"400", ts.URL + "/v1/search", "application/json", search(apknn.RandomQueries(82, 1, dim+1)[0]), 400},
		{"413", ts.URL + "/v1/search", "application/json", bytes.Repeat([]byte{' '}, MaxBodyBytes+1), 413},
		{"415", ts.URL + "/v1/insert", PackedMediaType, packed, 415},
		{"504", tslow.URL + "/v1/search", PackedMediaType, timed, 504},
	} {
		t.Run(c.name, func(t *testing.T) {
			over := roundTrip(t, plain, c.url, c.contentType, "match-"+c.name, c.body)
			got := roundTrip(t, framed, c.url, c.contentType, "match-"+c.name, c.body)
			if over.status != c.want {
				t.Fatalf("HTTP answered %d, the case wants %d: %s", over.status, c.want, over.body)
			}
			if got != over {
				t.Errorf("stream answered %+v\nHTTP answered   %+v", got, over)
			}
			if got.requestID != "match-"+c.name {
				t.Errorf("X-Request-ID %q came back as %q", "match-"+c.name, got.requestID)
			}
		})
	}
	t.Run("503", func(t *testing.T) {
		for _, rt := range []http.RoundTripper{plain, framed} {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/search", bytes.NewReader(search(q)))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("X-Sick", "yes")
			resp, err := rt.RoundTrip(req)
			if err != nil {
				t.Fatalf("%T: %v", rt, err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 503 || resp.Header.Get("Retry-After") != "7" || string(raw) != "{\"error\":\"sick\"}\n" {
				t.Errorf("%T: %d, Retry-After %q, body %q", rt, resp.StatusCode, resp.Header.Get("Retry-After"), raw)
			}
		}
	})
	t.Run("429", func(t *testing.T) {
		// One search parked in the backend holds the only admission slot.
		for len(parked.entered) > 0 {
			<-parked.entered // the 504 case's searches
		}
		holder, _ := streamClient(tslow.URL)
		held := make(chan error, 1)
		go func() {
			_, err := holder.Search(context.Background(), q, 3)
			held <- err
		}()
		<-parked.entered
		over := roundTrip(t, plain, tslow.URL+"/v1/search", PackedMediaType, "match-429", packed)
		got := roundTrip(t, framed, tslow.URL+"/v1/search", PackedMediaType, "match-429", packed)
		if over.status != 429 || over.retryAfter == "" {
			t.Fatalf("HTTP answered %+v, want a 429 with Retry-After", over)
		}
		if got != over {
			t.Errorf("stream answered %+v\nHTTP answered   %+v", got, over)
		}
		parked.release <- struct{}{}
		if err := <-held; err != nil {
			t.Errorf("the parked search: %v", err)
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
		if status, header, body, err := parseReplyFrame(buf); err == nil {
			if status < 100 || status > 999 {
				t.Fatalf("status %d was accepted", status)
			}
			again := appendFramePairs(binary.LittleEndian.AppendUint32(nil, uint32(status)), header)
			s2, h2, b2, err := parseReplyFrame(append(again, body...))
			if err != nil || s2 != status || !bytes.Equal(b2, body) || !sameHeader(h2, header) {
				t.Fatalf("reply frame did not survive re-encoding: %v", err)
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
