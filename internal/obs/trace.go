package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strconv"
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
	var h [16]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// SpanID names a scatter leg's span across the router→shard hop: 32 random
// bits, unique enough to tell sibling legs of one trace apart, which is all
// stitching needs. It travels and is recorded in decimal, written where it
// is needed rather than held as a string.
type SpanID uint32

// NewSpanID returns a fresh span ID.
func NewSpanID() SpanID {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0
	}
	return SpanID(binary.LittleEndian.Uint32(b[:]))
}

func (id SpanID) String() string { return strconv.FormatUint(uint64(id), 10) }

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

// AppendTraceContext appends the TraceContextHeader value,
// "traceID/spanID".
func AppendTraceContext(dst []byte, traceID string, spanID SpanID) []byte {
	return strconv.AppendUint(append(append(dst, traceID...), '/'), uint64(spanID), 10)
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

// traceContext is a context carrying outgoing span parentage. It is its own
// value, so attaching parentage to a scatter attempt costs one node and
// nothing boxed inside it.
type traceContext struct {
	context.Context
	traceID string
	spanID  SpanID
}

func (c *traceContext) Value(key any) any {
	if key == traceContextKey {
		return c
	}
	return c.Context.Value(key)
}

// WithTraceContext attaches outgoing span parentage to the context;
// serve.Client forwards it upstream as the TraceContextHeader. The router sets
// one per scatter attempt, each with that attempt's own span ID.
func WithTraceContext(ctx context.Context, traceID string, spanID SpanID) context.Context {
	return &traceContext{Context: ctx, traceID: traceID, spanID: spanID}
}

// TraceContext returns the context's outgoing span parentage, ok=false when
// none was attached.
func TraceContext(ctx context.Context) (traceID string, spanID SpanID, ok bool) {
	tc, ok := ctx.Value(traceContextKey).(*traceContext)
	if !ok {
		return "", 0, false
	}
	return tc.traceID, tc.spanID, true
}

// A request's span tree lives in one arena, its Trace: the spans are records
// in a slab the trace owns, linked by first-child and next-sibling indices,
// under the one mutex of the whole trace. The first records sit inside the
// Trace itself, so a request whose tree fits (a shard's five spans and five
// attrs, a router's four spans) costs one allocation for all of it. Past
// that the slab grows in chunks that are never moved, so a *Span handle
// stays valid while siblings are appended from other goroutines. The slab
// never drops a record and is never recycled: a canceled hedge loser may end
// its span after the flight recorder took the trace, and the recorder builds
// its records outside its own lock, so the garbage collector frees a trace
// once the last ring evicts it.
const (
	inlineSpans = 5
	inlineAttrs = 5
)

// Span is one timed node of a request's trace tree: a handle on a record of
// its trace's arena. Spans are safe for concurrent use: sibling children may
// be created and ended from different goroutines (hedged scatter legs, flush
// workers). Every method is nil-safe — a nil *Span ignores calls and
// StartChild returns nil — so untraced code paths pay only a nil check.
type Span struct {
	// t is the arena holding the record. An attached reference (ref set)
	// is no handle: its t and first name the shared span, its arena and
	// index, instead.
	t    *Trace
	name string
	// start is the offset from t.Start; dur is fixed once ended.
	start, dur time.Duration
	// first is the newest child and next the next older sibling, as
	// indices into t; 0 is none, as the arena's root is nobody's child.
	first, next int32
	self        int32 // this record's index in its arena
	ended       bool
	ref         bool
}

// attr is one annotation: typed, and formatted only when wired.
type attr struct {
	key  string
	str  string
	num  int64
	span int32 // index of the annotated span
	kind attrKind
}

type attrKind uint8

const (
	stringAttr attrKind = iota
	intAttr
	boolAttr
)

// value formats the attr as the wire carries it.
func (a *attr) value() string {
	switch a.kind {
	case intAttr:
		return strconv.FormatInt(a.num, 10)
	case boolAttr:
		return strconv.FormatBool(a.num != 0)
	}
	return a.str
}

// isTrue reports whether the attr reads "true" on the wire.
func (a *attr) isTrue() bool {
	return a.kind == boolAttr && a.num != 0 || a.kind == stringAttr && a.str == "true"
}

// chunks holds an arena's records past its inline capacity. Each chunk is
// allocated at its full length, twice as long as the one before, and never
// moved, so a pointer into one stays valid while records are appended. The
// first holds firstChunk records: a trace that spills spills little (a live
// node's search adds its base search and delta scan to the five inline
// spans), and the flight recorder retains every chunk for as long as it
// keeps the trace.
type chunks[T any] [][]T

const firstChunk = 2

// at returns overflow record i, nil when i is past every chunk.
func (c chunks[T]) at(i int32) *T {
	for _, ch := range c {
		if int(i) < len(ch) {
			return &ch[i]
		}
		i -= int32(len(ch))
	}
	return nil
}

// slot returns overflow record i, allocating the next chunk when i is one
// past the last.
func (c *chunks[T]) slot(i int32) *T {
	if p := c.at(i); p != nil {
		return p
	}
	size := firstChunk
	if n := len(*c); n > 0 {
		size = 2 * len((*c)[n-1])
	}
	*c = append(*c, make([]T, size))
	return &(*c)[len(*c)-1][0]
}

// overflow is the part of an arena that did not fit inline.
type overflow struct {
	spans chunks[Span]
	attrs chunks[attr]
}

// Trace is the per-request span tree: the front door creates one, every
// tier the request crosses records spans into it, and the flight recorder
// retains the whole tree. A nil *Trace has a nil (no-op) Root, so deep
// layers can record unconditionally.
type Trace struct {
	ID    string
	Start time.Time

	mu     sync.Mutex
	nspans int32
	nattrs int32
	// request marks a NewTrace arena, whose root's End records the time no
	// direct child covers; a NewSpan arena is a detached subtree.
	request bool
	spans   [inlineSpans]Span
	attrs   [inlineAttrs]attr
	more    *overflow

	// What the flight recorder knows beyond the tree, set by Complete
	// before the trace is published to its rings.
	classes uint8 // bit i set: retained by the ring of Classes[i]
	total   time.Duration
	outcome Outcome
}

// span returns record i; t.mu held.
func (t *Trace) span(i int32) *Span {
	if i < inlineSpans {
		return &t.spans[i]
	}
	return t.more.spans.at(i - inlineSpans)
}

// attr returns annotation i; t.mu held.
func (t *Trace) attr(i int32) *attr {
	if i < inlineAttrs {
		return &t.attrs[i]
	}
	return t.more.attrs.at(i - inlineAttrs)
}

// spill returns the arena's part past its inline capacity, allocating it
// on first use; t.mu held.
func (t *Trace) spill() *overflow {
	if t.more == nil {
		t.more = new(overflow)
	}
	return t.more
}

// newSpan appends a record; t.mu held, or t not yet shared.
func (t *Trace) newSpan(name string, start time.Duration) *Span {
	i := t.nspans
	var sp *Span
	if i < inlineSpans {
		sp = &t.spans[i]
	} else {
		sp = t.spill().spans.slot(i - inlineSpans)
	}
	t.nspans++
	*sp = Span{t: t, name: name, start: start, self: i}
	return sp
}

// newChild appends a record under parent, which lives in t; t.mu held.
func (t *Trace) newChild(parent *Span, name string, start time.Duration) *Span {
	c := t.newSpan(name, start)
	c.next, parent.first = parent.first, c.self
	return c
}

// NewTrace begins a trace whose root span carries rootName.
func NewTrace(id, rootName string) *Trace {
	t := &Trace{ID: id, Start: time.Now(), request: true}
	t.newSpan(rootName, 0)
	return t
}

// NewSpan starts a detached root span, clocked from now, in an arena of its
// own. The batcher uses one per shared flush and attaches it to every
// member's tree afterwards.
func NewSpan(name string) *Span {
	t := &Trace{Start: time.Now()}
	return t.newSpan(name, 0)
}

// Root returns the trace's root span, nil for a nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return &t.spans[0]
}

// StartChild creates and returns a running child span, clocked from now.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	start := time.Since(t.Start)
	t.mu.Lock()
	c := t.newChild(s, name, start)
	t.mu.Unlock()
	return c
}

// ObserveChild appends an already-completed child span that ended now and
// lasted d — how the batcher records queue wait and flush assembly, which
// are known only once they are over.
func (s *Span) ObserveChild(name string, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	start := time.Since(t.Start) - d
	t.mu.Lock()
	c := t.newChild(s, name, start)
	c.dur, c.ended = d, true
	t.mu.Unlock()
	return c
}

// AttachChild grafts an existing (completed) span as a child by reference —
// how one flush's backend span lands in every coalesced member's tree. The
// subtree stays in its own arena and may be shared between parents; it must
// not be mutated after attachment.
func (s *Span) AttachChild(child *Span) {
	if s == nil || child == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	r := t.newChild(s, "", 0)
	r.t, r.first, r.ref = child.t, child.self, true
	t.mu.Unlock()
}

// End closes the span, fixing its duration at now−start. Second and later
// calls are ignored, so defer sp.End() composes with explicit ends.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.end(time.Since(s.t.Start) - s.start)
}

// EndIn closes the span with an explicit duration.
func (s *Span) EndIn(d time.Duration) {
	if s == nil {
		return
	}
	s.end(d)
}

func (s *Span) end(d time.Duration) {
	t := s.t
	t.mu.Lock()
	if s.ended {
		t.mu.Unlock()
		return
	}
	s.dur, s.ended = d, true
	if s.self != 0 || !t.request {
		t.mu.Unlock()
		return
	}
	// A request's root: charge the time its direct children leave
	// uncovered. A child still running covers the root up to its end;
	// an attached reference is read under its own arena's lock, after
	// this one is released.
	var ivs [8]interval
	cover := ivs[:0]
	var refs [4]*Span
	shared := refs[:0]
	for c := s.first; c != 0; {
		sp := t.span(c)
		switch {
		case sp.ref:
			shared = append(shared, sp)
		case sp.ended:
			cover = append(cover, interval{sp.start, sp.start + sp.dur})
		default:
			cover = append(cover, interval{sp.start, d})
		}
		c = sp.next
	}
	t.mu.Unlock()
	for _, r := range shared {
		shift := r.t.Start.Sub(t.Start)
		r.t.mu.Lock()
		sp := r.t.span(r.first)
		iv := interval{sp.start + shift, d}
		if sp.ended {
			iv.to = iv.from + sp.dur
		}
		r.t.mu.Unlock()
		cover = append(cover, iv)
	}
	unattributed.With(s.name).Record(d - covered(cover, d))
}

// interval is a child's extent on its root's clock.
type interval struct{ from, to time.Duration }

// covered returns how much of [0, d] the union of ivs covers.
func covered(ivs []interval, d time.Duration) time.Duration {
	// Insertion sort: a root has a handful of direct children.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].from < ivs[j-1].from; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var sum, reach time.Duration
	for _, iv := range ivs {
		from, to := max(iv.from, reach, 0), min(iv.to, d)
		if to > from {
			sum += to - from
			reach = to
		}
	}
	return sum
}

// unattributed is the self-accounting series: per root span name, the part
// of each request that no direct child span of its root covers.
var unattributed = Default.HistogramVec("apknn_trace_unattributed_seconds",
	"Request time no direct child of the root span covers, by root span name", "root")

// SetAttr annotates the span with a string; a repeated key overwrites in
// place.
func (s *Span) SetAttr(key, value string) {
	s.set(attr{key: key, str: value, kind: stringAttr})
}

// SetInt annotates the span with an integer, formatted only when wired.
func (s *Span) SetInt(key string, v int64) {
	s.set(attr{key: key, num: v, kind: intAttr})
}

// SetBool annotates the span with a boolean, formatted only when wired.
func (s *Span) SetBool(key string, v bool) {
	a := attr{key: key, kind: boolAttr}
	if v {
		a.num = 1
	}
	s.set(a)
}

func (s *Span) set(a attr) {
	if s == nil {
		return
	}
	t := s.t
	a.span = s.self
	t.mu.Lock()
	for i := int32(0); i < t.nattrs; i++ {
		if p := t.attr(i); p.span == a.span && p.key == a.key {
			*p = a
			t.mu.Unlock()
			return
		}
	}
	i := t.nattrs
	t.nattrs++
	if i < inlineAttrs {
		t.attrs[i] = a
	} else {
		*t.spill().attrs.slot(i - inlineAttrs) = a
	}
	t.mu.Unlock()
}

// target names a shared span an attached reference points at.
type target struct {
	t *Trace
	i int32
}

// Wire deep-copies the span tree into its JSON wire form. Safe to call
// while sibling branches are still being recorded. The flight recorder calls
// it when a retained request is read, not when it finishes, and every call
// returns a tree of its own: the router's stitcher grafts into what it got.
func (s *Span) Wire() *WireSpan {
	if s == nil {
		return nil
	}
	return s.t.wire(s.self)
}

// wire builds record i's subtree. Attached references are wired after this
// arena's lock is released, each under its own.
func (t *Trace) wire(i int32) *WireSpan {
	type pending struct {
		slot **WireSpan
		at   target
	}
	var refs []pending
	t.mu.Lock()
	now := time.Since(t.Start)
	base := t.Start.UnixNano()
	nodes := make([]*WireSpan, t.nspans)
	var build func(i int32) *WireSpan
	build = func(i int32) *WireSpan {
		sp := t.span(i)
		ws := &WireSpan{Name: sp.name, StartUnixNS: base + int64(sp.start), DurNS: int64(sp.dur)}
		if !sp.ended {
			ws.DurNS = int64(now - sp.start)
		}
		nodes[i] = ws
		n := 0
		for c := sp.first; c != 0; c = t.span(c).next {
			n++
		}
		if n > 0 {
			// The list runs newest first; the wire lists children in the
			// order they were added.
			ws.Children = make([]*WireSpan, n)
			for c := sp.first; c != 0; c = t.span(c).next {
				n--
				if cs := t.span(c); cs.ref {
					refs = append(refs, pending{&ws.Children[n], target{cs.t, cs.first}})
				} else {
					ws.Children[n] = build(c)
				}
			}
		}
		return ws
	}
	root := build(i)
	for j := int32(0); j < t.nattrs; j++ {
		a := t.attr(j)
		if ws := nodes[a.span]; ws != nil {
			if ws.Attrs == nil {
				ws.Attrs = make(map[string]string)
			}
			ws.Attrs[a.key] = a.value()
		}
	}
	t.mu.Unlock()
	for _, r := range refs {
		*r.slot = r.at.t.wire(r.at.i)
	}
	return root
}

// hedgeWon reports whether the subtree of record i, attached references
// included, holds a span marked both hedged and winner — the router sets
// both on scatter legs.
func (t *Trace) hedgeWon(i int32) bool {
	var refs []target
	t.mu.Lock()
	won := t.hedgeWonAt(i, &refs)
	t.mu.Unlock()
	for _, r := range refs {
		won = won || r.t.hedgeWon(r.i)
	}
	return won
}

// hedgeWonAt is hedgeWon within this arena; t.mu held.
func (t *Trace) hedgeWonAt(i int32, refs *[]target) bool {
	sp := t.span(i)
	if sp.ref {
		*refs = append(*refs, target{sp.t, sp.first})
		return false
	}
	var hedged, winner bool
	for j := int32(0); j < t.nattrs; j++ {
		if a := t.attr(j); a.span == i {
			hedged = hedged || a.key == "hedged" && a.isTrue()
			winner = winner || a.key == "winner" && a.isTrue()
		}
	}
	if hedged && winner {
		return true
	}
	for c := sp.first; c != 0; c = t.span(c).next {
		if t.hedgeWonAt(c, refs) {
			return true
		}
	}
	return false
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
