package obs

import (
	"sort"
	"sync"
	"time"
)

// Trace classes the flight recorder retains independently. A completed
// trace may land in several at once (a slow hedge win is "recent", "slow"
// and "hedge").
const (
	// ClassRecent retains every completed request — the rolling tail of
	// traffic for "what does a normal request look like right now".
	ClassRecent = "recent"
	// ClassSlow retains requests whose total breached SlowFactor times the
	// windowed p99 — the structural stragglers worth a post-mortem.
	ClassSlow = "slow"
	// ClassError retains requests answered with a 5xx or an internal error.
	ClassError = "error"
	// ClassShed retains requests refused by admission control (429).
	ClassShed = "shed"
	// ClassHedge retains requests where a hedged scatter leg won.
	ClassHedge = "hedge"
)

// Ring indices: a recorder keeps one ring per class, in display order.
const (
	ringRecent = iota
	ringSlow
	ringError
	ringShed
	ringHedge
	numClasses
)

// Classes lists every retained class in display order.
var Classes = []string{
	ringRecent: ClassRecent,
	ringSlow:   ClassSlow,
	ringError:  ClassError,
	ringShed:   ClassShed,
	ringHedge:  ClassHedge,
}

// TraceRecord is one completed request's retained trace — the flight
// recorder's unit and the /v1/debug/traces wire element.
type TraceRecord struct {
	// TraceID names the cross-node tree this record belongs to; on a shard
	// it equals the router-assigned trace ID carried by X-Trace-Context.
	TraceID string `json:"trace_id"`
	// Node is the recording node's identity (NodeID or listen address).
	Node string `json:"node,omitempty"`
	// Classes lists which ring buffers retained this trace.
	Classes []string `json:"classes"`
	// StartUnixNS/TotalNS bound the request end to end.
	StartUnixNS int64 `json:"start_unix_ns"`
	TotalNS     int64 `json:"total_ns"`
	// Status is the HTTP status the request was answered with.
	Status int `json:"status,omitempty"`
	// Error carries the terminal error string for errored requests.
	Error string `json:"error,omitempty"`
	// Root is the request's span tree.
	Root *WireSpan `json:"root"`
}

// Outcome is what the handler knows about a finished request beyond the
// span tree itself.
type Outcome struct {
	// Status is the HTTP status written for the request (0 counts as 200).
	Status int
	// Err is the terminal error string, "" on success.
	Err string
}

// flightEntry is one retained request: the finished span tree itself plus
// the record's scalars. The WireSpan form is built from it when a reader asks
// (record), so finishing a request copies nothing.
type flightEntry struct {
	tr      *Trace
	total   time.Duration
	outcome Outcome
	classes uint8 // bit i set: retained by the ring of Classes[i]
}

// record builds the wire form of e as node recorded it. The tree is read
// as it stands now: a span that was still running when the request finished
// (a canceled hedge loser) shows the duration it ended with.
func (e *flightEntry) record(node string) *TraceRecord {
	rec := &TraceRecord{
		TraceID:     e.tr.ID,
		Node:        node,
		StartUnixNS: e.tr.Start.UnixNano(),
		TotalNS:     int64(e.total),
		Status:      e.outcome.Status,
		Error:       e.outcome.Err,
		Root:        e.tr.Root().Wire(),
	}
	for i, c := range Classes {
		if e.classes&(1<<i) != 0 {
			rec.Classes = append(rec.Classes, c)
		}
	}
	return rec
}

// traceRing is one fixed-capacity overwrite-oldest buffer of entries.
type traceRing struct {
	buf  []*flightEntry
	next int // index the next entry lands in
	n    int // entries stored, ≤ len(buf)
}

func newTraceRing(depth int) *traceRing {
	return &traceRing{buf: make([]*flightEntry, depth)}
}

func (r *traceRing) add(e *flightEntry) {
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// list returns up to n entries, newest first.
func (r *traceRing) list(n int) []*flightEntry {
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]*flightEntry, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// FlightRecorder retains the last Depth completed traces per class in
// fixed ring buffers — always on, bounded memory, one mutex acquisition and
// one small allocation per completed request (never on the per-candidate
// hot path). What it retains is each request's own span tree; the
// TraceRecord form exists only in what Class, ByTraceID and Dump return.
type FlightRecorder struct {
	node       string
	depth      int
	slowFactor float64
	// p99 reports the windowed end-to-end p99 in nanoseconds (0 = no signal
	// yet); the slow classifier compares each total against slowFactor×p99.
	// It is called once per completed request, so it must be cheap — the
	// tiers pass a WindowQuantile.
	p99 func(now time.Time) int64

	mu       sync.Mutex
	rings    [numClasses]*traceRing // indexed like Classes
	recorded int64
}

// DefaultTraceDepth is the per-class retention when the caller passes 0.
const DefaultTraceDepth = 64

// DefaultSlowFactor classifies a request as slow at 4× the windowed p99 —
// far enough above the tail that the slow ring holds genuine outliers.
const DefaultSlowFactor = 4

// NewFlightRecorder builds a recorder identified as node, retaining depth
// traces per class. p99 may be nil (disables the slow classifier).
func NewFlightRecorder(node string, depth int, slowFactor float64, p99 func(now time.Time) int64) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultTraceDepth
	}
	if slowFactor <= 0 {
		slowFactor = DefaultSlowFactor
	}
	f := &FlightRecorder{node: node, depth: depth, slowFactor: slowFactor, p99: p99}
	for i := range f.rings {
		f.rings[i] = newTraceRing(depth)
	}
	return f
}

// Depth returns the per-class retention.
func (f *FlightRecorder) Depth() int {
	if f == nil {
		return 0
	}
	return f.depth
}

// Complete classifies and retains one finished request, whose clock read
// tr.Start+total when it finished. Nil-safe — a nil recorder drops the
// trace — so handlers record unconditionally.
func (f *FlightRecorder) Complete(tr *Trace, total time.Duration, o Outcome) {
	if f == nil || tr == nil {
		return
	}
	e := &flightEntry{tr: tr, total: total, outcome: o, classes: 1 << ringRecent}
	switch {
	case o.Status == 429:
		e.classes |= 1 << ringShed
	case o.Status >= 500 || (o.Err != "" && o.Status == 0):
		e.classes |= 1 << ringError
	}
	if f.p99 != nil {
		if p := f.p99(tr.Start.Add(total)); p > 0 && float64(total.Nanoseconds()) >= f.slowFactor*float64(p) {
			e.classes |= 1 << ringSlow
		}
	}
	if hedgeWon(tr.Root()) {
		e.classes |= 1 << ringHedge
	}
	f.mu.Lock()
	f.recorded++
	for i, ring := range f.rings {
		if e.classes&(1<<i) != 0 {
			ring.add(e)
		}
	}
	f.mu.Unlock()
}

// hedgeWon reports whether any span in the tree is a hedged attempt marked
// as the winner — the router sets both attrs on scatter legs.
func hedgeWon(s *Span) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	var hedged, winner bool
	for _, a := range s.attrs {
		hedged = hedged || (a.Key == "hedged" && a.Value == "true")
		winner = winner || (a.Key == "winner" && a.Value == "true")
	}
	// Children are only ever appended, so the elements below this length
	// stay put after the lock is dropped.
	children := s.children
	s.mu.Unlock()
	if hedged && winner {
		return true
	}
	for _, c := range children {
		if hedgeWon(c) {
			return true
		}
	}
	return false
}

// Register exports the recorder's completion count on s.
func (f *FlightRecorder) Register(s *Set) {
	s.CounterFunc("apknn_debug_traces_recorded_total", "Traces completed into the flight recorder", f.Recorded)
}

// Recorded returns how many traces have been completed into the recorder.
func (f *FlightRecorder) Recorded() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.recorded
}

// ClassCounts returns how many records each class currently retains.
func (f *FlightRecorder) ClassCounts() map[string]int {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int, len(f.rings))
	for i, ring := range f.rings {
		out[Classes[i]] = ring.n
	}
	return out
}

// records builds the wire form of entries, outside the recorder's lock.
func (f *FlightRecorder) records(entries []*flightEntry) []*TraceRecord {
	out := make([]*TraceRecord, len(entries))
	for i, e := range entries {
		out[i] = e.record(f.node)
	}
	return out
}

// Class returns up to n retained records of one class, newest first; n ≤ 0
// means the full ring. An unknown class returns nil. The records are built
// for this call and belong to the caller.
func (f *FlightRecorder) Class(class string, n int) []*TraceRecord {
	if f == nil {
		return nil
	}
	for i, c := range Classes {
		if c == class {
			f.mu.Lock()
			entries := f.rings[i].list(n)
			f.mu.Unlock()
			return f.records(entries)
		}
	}
	return nil
}

// ByTraceID returns every retained record with the given trace ID, newest
// first — several when a request landed in the ring more than once is not
// possible (one record, many classes), but the recent ring may still hold
// an older same-ID record after a client reused an ID.
func (f *FlightRecorder) ByTraceID(id string) []*TraceRecord {
	if f == nil || id == "" {
		return nil
	}
	f.mu.Lock()
	seen := make(map[*flightEntry]bool)
	var hits []*flightEntry
	for _, ring := range f.rings {
		for _, e := range ring.list(0) {
			if e.tr.ID == id && !seen[e] {
				seen[e] = true
				hits = append(hits, e)
			}
		}
	}
	f.mu.Unlock()
	sort.Slice(hits, func(i, j int) bool { return hits[i].tr.Start.After(hits[j].tr.Start) })
	return f.records(hits)
}

// Dump snapshots every ring, newest first per class — the anomaly bundle's
// traces.json payload.
func (f *FlightRecorder) Dump() map[string][]*TraceRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	entries := make([][]*flightEntry, len(f.rings))
	for i, ring := range f.rings {
		entries[i] = ring.list(0)
	}
	f.mu.Unlock()
	out := make(map[string][]*TraceRecord, len(entries))
	for i, es := range entries {
		out[Classes[i]] = f.records(es)
	}
	return out
}
