package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// The stream protocol: what a router→shard leg travels as. It is HTTP/1.1
// keep-alive's concurrency model — one request, then its reply, on a
// connection nobody else is using — without HTTP's text. A caller opens a
// stream with an ordinary upgrade request to a serving node,
//
//	GET /v1/stream HTTP/1.1
//	Host: <node>
//	Connection: Upgrade
//	Upgrade: apknn-stream
//
// and the node answers "101 Switching Protocols" with the same two headers;
// any other status refuses the stream. From then on the connection carries
// frames, little-endian, each a request answered by exactly one reply before
// the next request is sent (no tags, no multiplexing, no pipelining):
//
//	request                          reply
//	uint32  length of what follows   uint32  length of what follows
//	str     method                   uint32  status
//	str     request-URI              uint32  header pairs
//	uint32  header pairs             …       pairs × (str name, str value)
//	…       pairs × (str name,       …       body: the rest of the frame
//	        str value)
//	…       body: the rest of the frame
//
// where str is a uint32 byte count followed by that many bytes. A frame
// carries only the header pairs its request or reply has (Content-Type,
// X-Request-ID, X-Trace-Context, Retry-After, …; nothing is added for the
// wire), and a search body is the packed APQ/APR body of wire.go untouched.
// Everything before the body must fit maxFrameHead. A node reads at most
// maxRequestFrame bytes of a request frame — enough for MaxBodyBytes and one
// byte more, so the 413 is the handler's — and closes the stream after
// answering a longer one. Hanging up is how a caller cancels: the node sees
// it the way net/http does (a read that stays posted while the handler
// runs) and cancels the request's context.
//
// On the node every frame becomes an *http.Request for the http.Handler its
// *http.Server serves, so a frame passes whatever an HTTP request passes:
// middleware, FrontDoor, admission, validation, the body cap, the flight
// recorder. HTTP itself remains for people, curl, /metrics and any Client
// without a Stream.

// StreamProtocol is the Upgrade token of the stream handshake.
const StreamProtocol = "apknn-stream"

const (
	streamPath = "/v1/stream"
	// maxFrameHead bounds a frame's method, request-URI and header pairs.
	maxFrameHead = 64 << 10
	// maxRequestFrame is how much of one request frame a node reads.
	maxRequestFrame = MaxBodyBytes + maxFrameHead
	// maxReplyFrame is the longest reply a caller accepts.
	maxReplyFrame = 1 << 30
	// frameChunk is the least a frame's buffer grows by. Beyond it the buffer
	// at most doubles what has arrived, so a declared length allocates
	// nothing the peer has not sent.
	frameChunk = 64 << 10
)

// aLongTimeAgo is a deadline that has passed: setting it wakes a blocked
// read or write on the connection.
var aLongTimeAgo = time.Unix(1, 0)

// readFrameLen reads a frame's length prefix. io.EOF means the peer hung up
// between frames.
func readFrameLen(br *bufio.Reader) (int, error) {
	p, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(p) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	n := binary.LittleEndian.Uint32(p)
	_, _ = br.Discard(4) // cannot fail: the four bytes are buffered
	return int(n), nil
}

// readFrameBytes reads the n bytes of a frame into buf[:0], growing it as
// the bytes arrive.
func readFrameBytes(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(frameChunk, len(buf)))
		buf = slices.Grow(buf, step)
		m, err := io.ReadFull(br, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// cutStr splits a str off the front of b.
func cutStr(b []byte) (s, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, errors.New("cut off inside a length")
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if n > uint64(len(b)-4) {
		return nil, nil, fmt.Errorf("a field declares %d bytes, %d remain", n, len(b)-4)
	}
	return b[4 : 4+n], b[4+n:], nil
}

func cutUint32(b []byte) (v uint32, rest []byte, err error) {
	if len(b) < 4 {
		return 0, nil, errors.New("cut off inside a count")
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

// appendFramePairs appends h as a pair count and its pairs, one pair per
// value.
func appendFramePairs(dst []byte, h http.Header) []byte {
	count := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	pairs := uint32(0)
	for name, vs := range h {
		for _, v := range vs {
			dst = appendStr(appendStr(dst, name), v)
			pairs++
		}
	}
	binary.LittleEndian.PutUint32(dst[count:], pairs)
	return dst
}

// appendPairList appends kv — name, value, name, value, … — as a pair count
// and its pairs.
func appendPairList(dst []byte, kv []string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(kv)/2))
	for _, s := range kv {
		dst = appendStr(dst, s)
	}
	return dst
}

// frameString is string(b) without the allocation for the methods, names
// and values every leg carries.
func frameString(b []byte) string {
	switch string(b) {
	case http.MethodPost:
		return http.MethodPost
	case http.MethodGet:
		return http.MethodGet
	case "Content-Type":
		return "Content-Type"
	case "Content-Length":
		return "Content-Length"
	case "X-Request-Id":
		return "X-Request-Id"
	case "X-Trace-Context":
		return "X-Trace-Context"
	case "Retry-After":
		return "Retry-After"
	case PackedMediaType:
		return PackedMediaType
	case "application/json":
		return "application/json"
	}
	return string(b)
}

// framePairs checks the pair count and pairs at the front of b and splits
// them off: pairs is the count and the pairs, for headerOf or pairValue. The
// count is held to the bytes that follow it before anything is sized by it.
func framePairs(b []byte) (pairs, rest []byte, err error) {
	n, rest, err := cutUint32(b)
	if err != nil {
		return nil, nil, err
	}
	// A pair is at least its two length prefixes, and all of them precede
	// the body.
	if uint64(n)*8 > uint64(min(len(rest), maxFrameHead)) {
		return nil, nil, fmt.Errorf("%d header pairs declared, %d bytes remain", n, len(rest))
	}
	for ; n > 0; n-- {
		if _, rest, err = cutStr(rest); err != nil {
			return nil, nil, err
		}
		if _, rest, err = cutStr(rest); err != nil {
			return nil, nil, err
		}
	}
	return b[:len(b)-len(rest)], rest, nil
}

// nextPair cuts the first pair off pairs that framePairs has checked.
func nextPair(pairs []byte) (name, value, rest []byte) {
	name, pairs, _ = cutStr(pairs)
	value, rest, _ = cutStr(pairs)
	return name, value, rest
}

// headerOf builds the header of pairs that framePairs has checked.
func headerOf(pairs []byte) http.Header {
	n, pairs, _ := cutUint32(pairs)
	h := make(http.Header, n)
	values := make([]string, n) // one backing array for every pair's value slice
	for ; n > 0; n-- {
		var name, value []byte
		name, value, pairs = nextPair(pairs)
		key := http.CanonicalHeaderKey(frameString(name))
		if vs := h[key]; vs != nil {
			h[key] = append(vs, frameString(value))
			continue
		}
		values[0] = frameString(value)
		h[key], values = values[:1:1], values[1:]
	}
	return h
}

// pairValue is headerOf(pairs).Get(name) for a canonical name, without the
// header: the first value of a pair whose name is name in any case.
func pairValue(pairs []byte, name string) []byte {
	n, pairs, _ := cutUint32(pairs)
	for ; n > 0; n-- {
		var k, v []byte
		k, v, pairs = nextPair(pairs)
		if strings.EqualFold(string(k), name) {
			return v
		}
	}
	return nil
}

// cutFramePairs reads a pair count and its pairs off the front of b into a
// new header.
func cutFramePairs(b []byte) (h http.Header, rest []byte, err error) {
	pairs, rest, err := framePairs(b)
	if err != nil {
		return nil, nil, err
	}
	return headerOf(pairs), rest, nil
}

// checkFrameHead holds what precedes a frame's body to maxFrameHead.
func checkFrameHead(frame, body []byte) error {
	if head := len(frame) - len(body); head > maxFrameHead {
		return fmt.Errorf("%d bytes before the body, limit %d", head, maxFrameHead)
	}
	return nil
}

// parseRequestFrame splits a request frame (its length prefix already
// taken off). uri and body alias frame; the method and the header do not.
func parseRequestFrame(frame []byte) (method string, uri []byte, h http.Header, body []byte, err error) {
	m, rest, err := cutStr(frame)
	if err != nil {
		return "", nil, nil, nil, err
	}
	if uri, rest, err = cutStr(rest); err != nil {
		return "", nil, nil, nil, err
	}
	if h, body, err = cutFramePairs(rest); err != nil {
		return "", nil, nil, nil, err
	}
	if err = checkFrameHead(frame, body); err != nil {
		return "", nil, nil, nil, err
	}
	return frameString(m), uri, h, body, nil
}

// parseReplyFrame splits a reply frame (its length prefix already taken
// off). pairs, checked, and body alias frame.
func parseReplyFrame(frame []byte) (status int, pairs, body []byte, err error) {
	code, rest, err := cutUint32(frame)
	if err != nil {
		return 0, nil, nil, err
	}
	if code < 100 || code > 999 {
		return 0, nil, nil, fmt.Errorf("status %d", code)
	}
	if pairs, body, err = framePairs(rest); err != nil {
		return 0, nil, nil, err
	}
	if err = checkFrameHead(frame, body); err != nil {
		return 0, nil, nil, err
	}
	return int(code), pairs, body, nil
}

// sealFrame writes the length prefix of a frame built after four
// placeholder bytes.
func sealFrame(frame []byte) {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
}

// frameBody is a frame's body as a request or response Body.
type frameBody struct{ bytes.Reader }

func (*frameBody) Close() error { return nil }

// frameWriter is the ResponseWriter a frame's handler writes to: the reply
// frame, built in place and sent in one write once the handler has returned.
type frameWriter struct {
	header http.Header
	// out is the reply frame so far: length placeholder, status and pairs
	// once the header is written, then the body.
	out         []byte
	wroteHeader bool
}

func (w *frameWriter) Header() http.Header { return w.header }

func (w *frameWriter) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	w.out = binary.LittleEndian.AppendUint32(append(w.out[:0], 0, 0, 0, 0), uint32(code))
	w.out = appendFramePairs(w.out, w.header)
}

func (w *frameWriter) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	w.out = append(w.out, p...)
	return len(p), nil
}

// reset readies w for the next frame's handler.
func (w *frameWriter) reset() {
	clear(w.header)
	w.wroteHeader = false
}

// send writes the finished reply frame.
func (w *frameWriter) send(conn net.Conn) error {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if len(w.out)-4 > maxReplyFrame {
		size := len(w.out) - 4
		w.reset()
		WriteError(w, http.StatusInternalServerError,
			fmt.Sprintf("serve: a reply of %d bytes does not fit a stream frame", size))
	}
	sealFrame(w.out)
	_, err := conn.Write(w.out)
	if cap(w.out) > maxPooledBuf {
		w.out = nil // one outsized reply must not pin its buffer to the stream
	}
	return err
}

// stream is the node's end of one upgraded connection.
type stream struct {
	conn net.Conn
	br   *bufio.Reader

	mu sync.Mutex
	// busy is set from a frame's arrival until its reply is written; closing
	// once the server drains. An idle stream is woken to exit, a busy one
	// exits after its reply.
	busy, closing bool
}

// streamSet is a Server's open streams.
type streamSet struct {
	mu       sync.Mutex
	open     map[*stream]struct{}
	draining bool
	wg       sync.WaitGroup // one per open stream
}

func (ss *streamSet) add(st *stream) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.draining {
		return false
	}
	if ss.open == nil {
		ss.open = make(map[*stream]struct{})
	}
	ss.open[st] = struct{}{}
	ss.wg.Add(1)
	return true
}

func (ss *streamSet) remove(st *stream) {
	ss.mu.Lock()
	delete(ss.open, st)
	ss.mu.Unlock()
	ss.wg.Done()
}

func (ss *streamSet) count() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.open)
}

// drain refuses new streams, wakes the idle ones so they exit, and leaves
// each busy one to exit once its reply is written.
func (ss *streamSet) drain() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.draining = true
	for st := range ss.open {
		st.mu.Lock()
		st.closing = true
		if !st.busy {
			_ = st.conn.SetReadDeadline(aLongTimeAgo) // fails only on a connection already gone
		}
		st.mu.Unlock()
	}
}

// abort closes every stream still open, for a drain that ran out of time.
func (ss *streamSet) abort() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for st := range ss.open {
		st.conn.Close()
	}
}

// setBusy marks the arrival of a frame (true) or the end of its reply
// (false), and reports whether the stream should go on to the next frame.
func (st *stream) setBusy(busy bool) (next bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.busy = busy
	return !st.closing
}

// handleStream serves GET /v1/stream: the upgrade, then the connection's
// frames until the caller hangs up or the server drains, each answered on
// this goroutine — the one net/http started for the connection.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !strings.EqualFold(r.Header.Get("Upgrade"), StreamProtocol) {
		w.Header().Set("Upgrade", StreamProtocol)
		WriteError(w, http.StatusUpgradeRequired, "serve: "+streamPath+" takes GET with Upgrade: "+StreamProtocol)
		return
	}
	// Frames go to whatever handler the listener serves, which may wrap this
	// Server's: the *http.Server is the one place that knows it.
	hs, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	if hs == nil {
		WriteError(w, http.StatusInternalServerError, "serve: "+streamPath+" needs an *http.Server around the handler")
		return
	}
	h := hs.Handler
	if h == nil {
		h = http.DefaultServeMux
	}
	if s.closed.Load() {
		WriteError(w, http.StatusServiceUnavailable, errClosed.Error())
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "serve: "+streamPath+": "+err.Error())
		return
	}
	defer conn.Close()
	if brw.Reader.Buffered() > 0 {
		return // frames sent ahead of the 101 are not the protocol
	}
	// net/http's reader sits on a wrapper that cancels the connection's
	// context — the parent of every frame's — on any read error, the
	// deadline errors below included. From here the stream reads the socket.
	brw.Reader.Reset(conn)
	st := &stream{conn: conn, br: brw.Reader}
	if !s.streams.add(st) {
		return // Close got in between the check above and here
	}
	defer s.streams.remove(st)
	_ = conn.SetDeadline(time.Time{}) // the http.Server's own timeouts end with the upgrade
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+StreamProtocol+"\r\n\r\n"); err != nil {
		return
	}
	st.serve(r, h)
}

// serve answers the stream's frames, one at a time, until the peer hangs up,
// a frame cannot be answered in sync, or the server drains. upgrade is the
// request that opened the stream: its context (alive until this returns) is
// the parent of every frame's, and its Host is theirs.
func (st *stream) serve(upgrade *http.Request, h http.Handler) {
	var (
		in     []byte // the current request frame, reused
		w      = frameWriter{header: make(http.Header)}
		hangup = make(chan error, 1) // the outcome of one frame's posted read
		// The last request-URI and its parse: a leg asks for the same one
		// every time.
		uri    string
		parsed *url.URL
	)
	remote := st.conn.RemoteAddr().String()
	for {
		n, err := readFrameLen(st.br)
		if err != nil {
			return
		}
		// A frame past the limit is answered from its first maxRequestFrame
		// bytes — the handler's 413 — and then the stream, out of step with
		// its peer, closes.
		cut := n > maxRequestFrame
		if in, err = readFrameBytes(st.br, in, min(n, maxRequestFrame)); err != nil {
			return
		}
		st.setBusy(true)
		w.reset()
		method, target, header, body, err := parseRequestFrame(in)
		if err == nil && string(target) != uri {
			if parsed, err = url.ParseRequestURI(string(target)); err == nil {
				uri = string(target)
			}
		}
		if err != nil {
			WriteError(&w, http.StatusBadRequest, "bad stream frame: "+err.Error())
			_ = w.send(st.conn)
			return
		}
		ctx, cancel := context.WithCancel(upgrade.Context())
		parts := &struct {
			url  url.URL
			body frameBody
		}{url: *parsed}
		parts.body.Reset(body)
		req := (&http.Request{
			Method: method, URL: &parts.url, RequestURI: uri,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: header, Body: &parts.body, ContentLength: int64(len(body)),
			Host: upgrade.Host, RemoteAddr: remote,
		}).WithContext(ctx)
		// The posted read: nothing is due from the peer until it has its
		// reply, so an error here is the peer hanging up, and that cancels
		// the request. A byte is the next frame arriving early; Peek leaves
		// it buffered.
		go func() {
			_, err := st.br.Peek(1)
			if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
				cancel()
			}
			hangup <- err
		}()
		h.ServeHTTP(&w, req)
		werr := w.send(st.conn)
		// Take the read back before this goroutine reads the next frame.
		_ = st.conn.SetReadDeadline(aLongTimeAgo)
		herr := <-hangup
		_ = st.conn.SetReadDeadline(time.Time{})
		cancel()
		gone := herr != nil && !errors.Is(herr, os.ErrDeadlineExceeded)
		if !st.setBusy(false) || werr != nil || gone || cut {
			return
		}
		if cap(in) > maxPooledBuf {
			in = nil // one outsized request must not pin its buffer to the stream
		}
	}
}
