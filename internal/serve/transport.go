package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"repro/internal/obs"
)

// maxIdleStreamsPerHost is how many idle streams to one node a
// StreamTransport keeps; one more is closed instead.
const maxIdleStreamsPerHost = 32

// StreamTransport carries each request as one frame on a stream (see
// stream.go) to the serving node its URL names: dialed and upgraded on first
// use, pooled per host, used by one request at a time. A Client with it as
// its Stream writes and reads the frames. There is no reader goroutine: an
// exchange writes the frame and reads the reply on the caller's goroutine,
// and a context that ends moves the connection's deadline into the past,
// which fails the read and discards the connection — the node sees the
// hang-up and cancels its handler. A stream that fails is never retried
// here; the caller's failover is the retry. The zero value is ready to use.
type StreamTransport struct {
	mu   sync.Mutex
	idle map[string][]*streamConn // per host, most recently used last
}

// streamConn is the caller's end of one stream.
type streamConn struct {
	host string
	conn net.Conn
	br   *bufio.Reader
	out  []byte // the request frame, reused
}

// frameRequest is what one request frame carries; pairs are its header
// pairs, name, value, name, value, ….
type frameRequest struct {
	method, uri string
	pairs       []string
	// traceID and spanID, when traceID is set, are the X-Trace-Context
	// pair, appended after pairs.
	traceID string
	spanID  obs.SpanID
	body    []byte
}

// streamScheme refuses a URL no stream can reach.
func streamScheme(u *url.URL) error {
	if u.Scheme != "http" {
		return fmt.Errorf("serve: stream transport speaks http only, not %q", u.Scheme)
	}
	return nil
}

// streamHost is the host:port a stream to u dials.
func streamHost(u *url.URL) string {
	if _, _, err := net.SplitHostPort(u.Host); err != nil {
		return net.JoinHostPort(u.Host, "80")
	}
	return u.Host
}

// exchange sends fr as one frame on a stream to host and reads the reply
// frame into reply's spare capacity. It returns the reply's status, its
// header pairs (checked, for pairValue) and its body; pairs and body alias
// reply's memory, or memory of their own when the frame outgrew it, and are
// valid until reply is next written.
func (t *StreamTransport) exchange(ctx context.Context, host string, fr *frameRequest,
	reply *bytes.Buffer) (status int, pairs, body []byte, err error) {
	sc, err := t.take(ctx, host)
	if err != nil {
		return 0, nil, nil, err
	}
	if err := sc.encode(fr); err != nil {
		t.put(sc, true) // nothing went over it
		return 0, nil, nil, fmt.Errorf("serve: stream to %s: %w", host, err)
	}
	release := untilDone(ctx, sc.conn)
	status, pairs, body, err = sc.exchange(reply)
	// A context that ended during the exchange may be moving the connection's
	// deadline at this moment, whatever the exchange made of it: the stream
	// is kept only if it was left alone.
	untouched := release()
	if err != nil {
		sc.conn.Close()
		if cerr := ctx.Err(); cerr != nil {
			return 0, nil, nil, cerr
		}
		// A stream that broke says the node went away: its idle siblings
		// are as dead and would each fail one request more.
		t.closeIdle(host)
		return 0, nil, nil, fmt.Errorf("serve: stream to %s: %w", host, err)
	}
	t.put(sc, untouched)
	return status, pairs, body, nil
}

// take returns an idle stream to host, or a new one.
func (t *StreamTransport) take(ctx context.Context, host string) (*streamConn, error) {
	t.mu.Lock()
	if list := t.idle[host]; len(list) > 0 {
		sc := list[len(list)-1]
		t.idle[host] = list[:len(list)-1]
		t.mu.Unlock()
		return sc, nil
	}
	t.mu.Unlock()
	return dialStream(ctx, host)
}

// put parks sc for the next request, or closes it: when it is not reusable,
// or its host has enough.
func (t *StreamTransport) put(sc *streamConn, reusable bool) {
	t.mu.Lock()
	if reusable = reusable && len(t.idle[sc.host]) < maxIdleStreamsPerHost; reusable {
		if t.idle == nil {
			t.idle = make(map[string][]*streamConn)
		}
		t.idle[sc.host] = append(t.idle[sc.host], sc)
	}
	t.mu.Unlock()
	if !reusable {
		sc.conn.Close()
	}
}

func (t *StreamTransport) closeIdle(host string) {
	t.mu.Lock()
	list := t.idle[host]
	delete(t.idle, host)
	t.mu.Unlock()
	for _, sc := range list {
		sc.conn.Close()
	}
}

// CloseIdleConnections closes every pooled stream.
func (t *StreamTransport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, list := range idle {
		for _, sc := range list {
			sc.conn.Close()
		}
	}
}

// IdleConnections is how many streams are pooled right now.
func (t *StreamTransport) IdleConnections() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, list := range t.idle {
		n += len(list)
	}
	return n
}

// untilDone arranges for conn's pending and future I/O to fail once ctx
// ends. The returned release reports whether the connection was left alone.
func untilDone(ctx context.Context, conn net.Conn) (release func() bool) {
	if ctx.Done() == nil {
		return func() bool { return true }
	}
	return context.AfterFunc(ctx, func() { _ = conn.SetDeadline(aLongTimeAgo) })
}

// dialStream connects to host and upgrades the connection to a stream.
// Anything but the 101 is a failure of the transport, named by its status.
func dialStream(ctx context.Context, host string) (*streamConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("serve: stream to %s: %w", host, err)
	}
	release := untilDone(ctx, conn)
	sc := &streamConn{host: host, conn: conn, br: bufio.NewReader(conn)}
	err = sc.upgrade()
	if !release() && err == nil {
		err = ctx.Err()
	}
	if err != nil {
		conn.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	return sc, nil
}

func (sc *streamConn) upgrade() error {
	_, err := io.WriteString(sc.conn, "GET "+streamPath+" HTTP/1.1\r\nHost: "+sc.host+
		"\r\nConnection: Upgrade\r\nUpgrade: "+StreamProtocol+"\r\n\r\n")
	if err != nil {
		return fmt.Errorf("serve: stream to %s: %w", sc.host, err)
	}
	resp, err := http.ReadResponse(sc.br, &http.Request{Method: http.MethodGet})
	if err != nil {
		return fmt.Errorf("serve: stream to %s: %w", sc.host, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), StreamProtocol) {
		return fmt.Errorf("serve: %s refused the stream upgrade: %s", sc.host, resp.Status)
	}
	return nil
}

// encode builds fr's frame in sc.out.
func (sc *streamConn) encode(fr *frameRequest) error {
	out := appendStr(appendStr(append(sc.out[:0], 0, 0, 0, 0), fr.method), fr.uri)
	pairs := len(fr.pairs) / 2
	if fr.traceID != "" {
		pairs++
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(pairs))
	for _, s := range fr.pairs {
		out = appendStr(out, s)
	}
	if fr.traceID != "" {
		out = appendStr(out, obs.TraceContextHeader)
		at := len(out)
		out = obs.AppendTraceContext(append(out, 0, 0, 0, 0), fr.traceID, fr.spanID)
		binary.LittleEndian.PutUint32(out[at:], uint32(len(out)-at-4))
	}
	sc.out = out
	if head := len(out) - 4; head > maxFrameHead {
		return fmt.Errorf("%d bytes of method, request-URI and headers, a frame takes %d", head, maxFrameHead)
	}
	if uint64(len(out)-4+len(fr.body)) > math.MaxUint32 {
		return errors.New("request does not fit a frame")
	}
	sc.out = append(out, fr.body...)
	sealFrame(sc.out)
	return nil
}

// exchange writes the encoded request frame and reads its reply into
// reply's spare capacity, grown to at most frameChunk, on a stream this
// goroutine has to itself.
func (sc *streamConn) exchange(reply *bytes.Buffer) (status int, pairs, body []byte, err error) {
	_, err = sc.conn.Write(sc.out)
	if cap(sc.out) > maxPooledBuf {
		sc.out = nil // one outsized request must not pin its buffer to the stream
	}
	if err != nil {
		return 0, nil, nil, err
	}
	n, err := readFrameLen(sc.br)
	if err != nil {
		return 0, nil, nil, err
	}
	if n > maxReplyFrame {
		return 0, nil, nil, fmt.Errorf("reply frame of %d bytes, limit %d", n, maxReplyFrame)
	}
	reply.Grow(min(n, frameChunk))
	frame, err := readFrameBytes(sc.br, reply.AvailableBuffer(), n)
	if err != nil {
		return 0, nil, nil, err
	}
	if status, pairs, body, err = parseReplyFrame(frame); err != nil {
		return 0, nil, nil, fmt.Errorf("bad reply frame: %w", err)
	}
	return status, pairs, body, nil
}
