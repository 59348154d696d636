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

// Classes lists every retained class in display order.
var Classes = []string{ClassRecent, ClassSlow, ClassError, ClassShed, ClassHedge}

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

// traceRing is one fixed-capacity overwrite-oldest buffer of records.
type traceRing struct {
	buf  []*TraceRecord
	next int // index the next record lands in
	n    int // records stored, ≤ len(buf)
}

func newTraceRing(depth int) *traceRing {
	return &traceRing{buf: make([]*TraceRecord, depth)}
}

func (r *traceRing) add(rec *TraceRecord) {
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// list returns up to n records, newest first.
func (r *traceRing) list(n int) []*TraceRecord {
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]*TraceRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// FlightRecorder retains the last Depth completed traces per class in
// fixed ring buffers — always on, bounded memory, one mutex acquisition
// per completed request (never on the per-candidate hot path).
type FlightRecorder struct {
	node       string
	depth      int
	slowFactor float64
	// p99 reports the windowed end-to-end p99 in nanoseconds (0 = no signal
	// yet); the slow classifier compares each total against slowFactor×p99.
	p99 func(now time.Time) int64

	mu       sync.Mutex
	rings    map[string]*traceRing
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
	rings := make(map[string]*traceRing, len(Classes))
	for _, c := range Classes {
		rings[c] = newTraceRing(depth)
	}
	return &FlightRecorder{node: node, depth: depth, slowFactor: slowFactor, p99: p99, rings: rings}
}

// Depth returns the per-class retention.
func (f *FlightRecorder) Depth() int {
	if f == nil {
		return 0
	}
	return f.depth
}

// Complete classifies and retains one finished request. Nil-safe — a nil
// recorder drops the trace — so handlers record unconditionally.
func (f *FlightRecorder) Complete(tr *Trace, total time.Duration, o Outcome) *TraceRecord {
	if f == nil || tr == nil {
		return nil
	}
	root := tr.Root().Wire()
	rec := &TraceRecord{
		TraceID:     tr.ID,
		Node:        f.node,
		StartUnixNS: tr.Start.UnixNano(),
		TotalNS:     int64(total),
		Status:      o.Status,
		Error:       o.Err,
		Root:        root,
	}
	classes := []string{ClassRecent}
	switch {
	case o.Status == 429:
		classes = append(classes, ClassShed)
	case o.Status >= 500 || (o.Err != "" && o.Status == 0):
		classes = append(classes, ClassError)
	}
	if f.p99 != nil {
		if p := f.p99(time.Now()); p > 0 && float64(total.Nanoseconds()) >= f.slowFactor*float64(p) {
			classes = append(classes, ClassSlow)
		}
	}
	if hedgeWon(root) {
		classes = append(classes, ClassHedge)
	}
	rec.Classes = classes
	f.mu.Lock()
	f.recorded++
	for _, c := range classes {
		f.rings[c].add(rec)
	}
	f.mu.Unlock()
	return rec
}

// hedgeWon reports whether any span in the tree is a hedged attempt marked
// as the winner — the router sets both attrs on scatter legs.
func hedgeWon(ws *WireSpan) bool {
	won := false
	ws.Walk(func(s *WireSpan) {
		if s.Attr("hedged") == "true" && s.Attr("winner") == "true" {
			won = true
		}
	})
	return won
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
	for c, ring := range f.rings {
		out[c] = ring.n
	}
	return out
}

// Class returns up to n retained records of one class, newest first; n ≤ 0
// means the full ring. An unknown class returns nil.
func (f *FlightRecorder) Class(class string, n int) []*TraceRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ring, ok := f.rings[class]
	if !ok {
		return nil
	}
	return ring.list(n)
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
	defer f.mu.Unlock()
	seen := make(map[*TraceRecord]bool)
	var out []*TraceRecord
	for _, ring := range f.rings {
		for _, rec := range ring.list(0) {
			if rec.TraceID == id && !seen[rec] {
				seen[rec] = true
				out = append(out, rec)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixNS > out[j].StartUnixNS })
	return out
}

// Dump snapshots every ring, newest first per class — the anomaly bundle's
// traces.json payload.
func (f *FlightRecorder) Dump() map[string][]*TraceRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string][]*TraceRecord, len(f.rings))
	for c, ring := range f.rings {
		out[c] = ring.list(0)
	}
	return out
}
