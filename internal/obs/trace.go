package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strings"
	"sync"
	"time"
)

// RequestIDHeader is the HTTP header request identity travels in: apserve
// assigns one when the caller didn't, aprouter forwards the caller's on
// every scatter leg, and both echo it on the response — so one ID names a
// request across the whole cluster and ties the shard-side flight-recorder
// record back to the caller. It is X-Request-ID as net/http spells a header
// key — the same header on the wire — so no Get or Set pays to re-spell it.
const RequestIDHeader = "X-Request-Id"

// TraceContextHeader carries span-tree parentage across the router→shard
// hop: "traceID/parentSpanID". The shard adopts the trace ID for its own
// tree and records the parent span ID as a root attribute, so the router
// can later stitch the shard's tree under the exact scatter leg that
// produced it (hedged legs carry distinct span IDs).
const TraceContextHeader = "X-Trace-Context"

// MaxRequestIDLen caps a caller-supplied request ID after sanitization.
// Long enough for a UUID plus prefix, short enough that a hostile header
// cannot bloat every log line and trace record it rides into.
const MaxRequestIDLen = 64

type ctxKey int

const (
	requestIDKey ctxKey = iota
	traceKey
	spanKey
	traceContextKey
)

// NewRequestID returns a fresh 16-hex-char request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// constant rather than panicking on a telemetry path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// NewSpanID returns a fresh 8-hex-char span ID — unique enough to tell
// sibling scatter legs of one trace apart, which is all stitching needs.
func NewSpanID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

// SanitizeRequestID filters a caller-supplied request ID down to the
// charset [A-Za-z0-9._-] and caps its length, so a hostile X-Request-ID
// header cannot inject forged fields into structured log lines or trace
// attributes. Disallowed bytes are dropped; an ID with nothing left
// returns "" and the caller assigns a fresh one.
func SanitizeRequestID(id string) string {
	if len(id) > 4*MaxRequestIDLen {
		// Don't even scan an absurd header; take a bounded prefix first.
		id = id[:4*MaxRequestIDLen]
	}
	// The IDs this system assigns, and most callers', have nothing to drop:
	// the clean prefix is the answer, uncopied — on a routed search that is
	// every hop.
	clean := 0
	for clean < len(id) && clean < MaxRequestIDLen && requestIDByte(id[clean]) {
		clean++
	}
	if clean == len(id) || clean == MaxRequestIDLen {
		return id[:clean]
	}
	var b strings.Builder
	b.WriteString(id[:clean])
	for i := clean; i < len(id) && b.Len() < MaxRequestIDLen; i++ {
		if c := id[i]; requestIDByte(c) {
			b.WriteByte(c)
		}
	}
	return b.String()
}

func requestIDByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '.' || c == '_' || c == '-'
}

// FormatTraceContext renders the TraceContextHeader value.
func FormatTraceContext(traceID, spanID string) string {
	return traceID + "/" + spanID
}

// ParseTraceContext splits a TraceContextHeader value into its sanitized
// trace and parent-span IDs. Malformed or empty values report ok=false.
func ParseTraceContext(v string) (traceID, spanID string, ok bool) {
	i := strings.IndexByte(v, '/')
	if i < 0 {
		return "", "", false
	}
	traceID = SanitizeRequestID(v[:i])
	spanID = SanitizeRequestID(v[i+1:])
	if traceID == "" || spanID == "" {
		return "", "", false
	}
	return traceID, spanID, true
}

// WithRequestID attaches a request ID to the context; serve.Client forwards it
// upstream as the RequestIDHeader.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the context's request ID, "" when none was attached.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

type traceContext struct {
	traceID string
	spanID  string
}

// WithTraceContext attaches outgoing span parentage to the context;
// serve.Client forwards it upstream as the TraceContextHeader. The router sets
// one per scatter attempt, each with that attempt's own span ID.
func WithTraceContext(ctx context.Context, traceID, spanID string) context.Context {
	return context.WithValue(ctx, traceContextKey, traceContext{traceID: traceID, spanID: spanID})
}

// TraceContext returns the context's outgoing span parentage, ok=false when
// none was attached.
func TraceContext(ctx context.Context) (traceID, spanID string, ok bool) {
	tc, ok := ctx.Value(traceContextKey).(traceContext)
	return tc.traceID, tc.spanID, ok
}

// Attr is one key/value annotation on a span, kept in set order.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed node of a request's trace tree. Spans are safe for
// concurrent use: sibling children may be created and ended from different
// goroutines (hedged scatter legs, flush workers). Every method is nil-safe
// — a nil *Span ignores calls and StartChild returns nil — so untraced code
// paths pay only a nil check.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// NewSpan starts a detached root span, clocked from now. The batcher uses
// one per flush and grafts it into every member's tree afterwards.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild creates and returns a running child span, clocked from now.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// ObserveChild appends an already-completed child span that ended now and
// lasted d — how the batcher records queue wait and flush assembly, which
// are known only once they are over.
func (s *Span) ObserveChild(name string, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	child := &Span{name: name, start: time.Now().Add(-d), dur: d, ended: true}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// AttachChild grafts an existing (completed) span as a child — how one
// flush's backend span lands in every coalesced member's tree. The subtree
// may be shared between parents; it must not be mutated after attachment.
func (s *Span) AttachChild(child *Span) {
	if s == nil || child == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
}

// End closes the span, fixing its duration at now−start. Second and later
// calls are ignored, so defer sp.End() composes with explicit ends.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// EndIn closes the span with an explicit duration.
func (s *Span) EndIn(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = d
		s.ended = true
	}
	s.mu.Unlock()
}

// SetAttr annotates the span; a repeated key overwrites in place.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Attr returns the span's value for key, "" when unset.
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Name returns the span's name, "" for nil.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// StartTime returns when the span started.
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the recorded duration; a still-running span reports its
// elapsed time so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// Children returns a snapshot of the span's direct children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Wire deep-copies the span tree into its JSON wire form. Safe to call
// while sibling branches are still being recorded. The flight recorder calls
// it when a retained request is read, not when it finishes, and every call
// returns a tree of its own: the router's stitcher grafts into what it got.
func (s *Span) Wire() *WireSpan {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	ws := &WireSpan{
		Name:        s.name,
		StartUnixNS: s.start.UnixNano(),
		DurNS:       int64(s.dur),
	}
	if !s.ended {
		ws.DurNS = int64(time.Since(s.start))
	}
	if len(s.attrs) > 0 {
		ws.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			ws.Attrs[a.Key] = a.Value
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		ws.Children = append(ws.Children, c.Wire())
	}
	return ws
}

// WireSpan is the JSON form of one span — what /v1/debug/traces serves and
// what the router stitches shard-side trees into.
type WireSpan struct {
	Name        string            `json:"name"`
	StartUnixNS int64             `json:"start_unix_ns"`
	DurNS       int64             `json:"dur_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
	Children    []*WireSpan       `json:"children,omitempty"`
}

// Attr returns the wire span's value for key, "" when unset.
func (ws *WireSpan) Attr(key string) string {
	if ws == nil {
		return ""
	}
	return ws.Attrs[key]
}

// Find returns the first span named name in a depth-first walk, the
// receiver included; nil when absent.
func (ws *WireSpan) Find(name string) *WireSpan {
	if ws == nil {
		return nil
	}
	if ws.Name == name {
		return ws
	}
	for _, c := range ws.Children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// Trace is the per-request span tree: the front door creates one, every
// tier the request crosses records spans into it, and the flight recorder
// retains the whole tree. A nil *Trace has a nil (no-op) Root, so deep
// layers can record unconditionally.
type Trace struct {
	ID    string
	Start time.Time

	root *Span
}

// NewTrace begins a trace whose root span carries rootName.
func NewTrace(id, rootName string) *Trace {
	root := NewSpan(rootName)
	return &Trace{ID: id, Start: root.start, root: root}
}

// Root returns the trace's root span, nil for a nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// WithTrace attaches a span recorder to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey, t)
}

// TraceFrom returns the context's span recorder, nil (safe to take the Root
// of) when the request is not being traced.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// WithSpan marks sp as the context's current span, so nested layers attach
// their children under it rather than under the trace root.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		// Untraced request: don't grow the context chain — every value
		// wrapper is an allocation plus a longer Value() walk on the
		// search hot path.
		return ctx
	}
	return context.WithValue(ctx, spanKey, sp)
}

// CurrentSpan returns the context's current span, falling back to the
// attached trace's root; nil (safe to use) when the request is untraced.
func CurrentSpan(ctx context.Context) *Span {
	if sp, _ := ctx.Value(spanKey).(*Span); sp != nil {
		return sp
	}
	return TraceFrom(ctx).Root()
}

// StartSpan starts a child of the context's current span. The caller must
// End it; a nil result (untraced request) ends as a no-op.
func StartSpan(ctx context.Context, name string) *Span {
	return CurrentSpan(ctx).StartChild(name)
}
