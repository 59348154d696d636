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

// record builds the wire form of a retained trace as node recorded it. The
// tree is read as it stands now: a span that was still running when the
// request finished (a canceled hedge loser) shows the duration it ended with.
func (t *Trace) record(node string) *TraceRecord {
	rec := &TraceRecord{
		TraceID:     t.ID,
		Node:        node,
		StartUnixNS: t.Start.UnixNano(),
		TotalNS:     int64(t.total),
		Status:      t.outcome.Status,
		Error:       t.outcome.Err,
		Root:        t.Root().Wire(),
	}
	for i, c := range Classes {
		if t.classes&(1<<i) != 0 {
			rec.Classes = append(rec.Classes, c)
		}
	}
	return rec
}

// traceRing is one fixed-capacity overwrite-oldest buffer of traces.
type traceRing struct {
	buf  []*Trace
	next int // index the next entry lands in
	n    int // entries stored, ≤ len(buf)
}

func newTraceRing(depth int) *traceRing {
	return &traceRing{buf: make([]*Trace, depth)}
}

func (r *traceRing) add(t *Trace) {
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// list returns up to n traces, newest first.
func (r *traceRing) list(n int) []*Trace {
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]*Trace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// FlightRecorder retains the last Depth completed traces per class in
// fixed ring buffers — always on, bounded memory, one mutex acquisition and
// no allocation per completed request (never on the per-candidate hot
// path). What it retains is each request's own Trace, whose arena holds the
// span tree and the record's scalars; the TraceRecord form exists only in
// what Class, ByTraceID and Dump return.
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
	classes := uint8(1 << ringRecent)
	switch {
	case o.Status == 429:
		classes |= 1 << ringShed
	case o.Status >= 500 || (o.Err != "" && o.Status == 0):
		classes |= 1 << ringError
	}
	if f.p99 != nil {
		if p := f.p99(tr.Start.Add(total)); p > 0 && float64(total.Nanoseconds()) >= f.slowFactor*float64(p) {
			classes |= 1 << ringSlow
		}
	}
	if tr.hedgeWon(0) {
		classes |= 1 << ringHedge
	}
	tr.total, tr.outcome, tr.classes = total, o, classes
	f.mu.Lock()
	f.recorded++
	for i, ring := range f.rings {
		if classes&(1<<i) != 0 {
			ring.add(tr)
		}
	}
	f.mu.Unlock()
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

// records builds the wire form of traces, outside the recorder's lock.
func (f *FlightRecorder) records(traces []*Trace) []*TraceRecord {
	out := make([]*TraceRecord, len(traces))
	for i, t := range traces {
		out[i] = t.record(f.node)
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
			traces := f.rings[i].list(n)
			f.mu.Unlock()
			return f.records(traces)
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
	seen := make(map[*Trace]bool)
	var hits []*Trace
	for _, ring := range f.rings {
		for _, t := range ring.list(0) {
			if t.ID == id && !seen[t] {
				seen[t] = true
				hits = append(hits, t)
			}
		}
	}
	f.mu.Unlock()
	sort.Slice(hits, func(i, j int) bool { return hits[i].Start.After(hits[j].Start) })
	return f.records(hits)
}

// Dump snapshots every ring, newest first per class — the anomaly bundle's
// traces.json payload.
func (f *FlightRecorder) Dump() map[string][]*TraceRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	traces := make([][]*Trace, len(f.rings))
	for i, ring := range f.rings {
		traces[i] = ring.list(0)
	}
	f.mu.Unlock()
	out := make(map[string][]*TraceRecord, len(traces))
	for i, ts := range traces {
		out[Classes[i]] = f.records(ts)
	}
	return out
}
