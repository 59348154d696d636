package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/obs"
)

// FrontDoor is the one traced entry every POST endpoint of both tiers — a
// serving node and the cluster router — is registered through, so request
// identity, span parentage, admission and the end-of-request accounting
// happen in one order everywhere. It also owns the body validation the two
// tiers share and the /v1/debug/traces selection over its recorder.
type FrontDoor struct {
	// Node is stamped on every root span as the "node" attr and reported by
	// /v1/debug/traces; "" omits the attr.
	Node string
	// Rec receives every finished request.
	Rec *obs.FlightRecorder
	// Dim, when set, refuses a wrong-length vector with 400 at decode time.
	Dim int
	// Holder names who holds Dim in that 400: "dataset has" on a node,
	// "cluster serves" on the router.
	Holder string
	// DefaultK answers bodies that omit k.
	DefaultK int
}

// Handle wraps one POST endpoint in the fixed front-door order: method
// check, start clock, status recorder, sanitized and echoed X-Request-ID,
// X-Trace-Context adoption and root span, admission (admit may be nil — the
// router admits everything), the endpoint itself, then the end-to-end
// histogram record (hist may be nil for endpoints without one), the root
// span's end and the flight-recorder completion. endpoint runs with the
// trace and the request ID on its context, so every tier below records spans
// into this tree and every upstream call forwards the ID.
func (fd *FrontDoor) Handle(root string, hist *obs.Histogram, admit func(http.ResponseWriter) (release func()),
	endpoint func(ctx context.Context, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		start := time.Now()
		sw := NewStatusRecorder(w)
		tr := fd.beginTrace(sw, r, root)
		defer fd.observeRequest(hist, tr, start, sw)
		if admit != nil {
			release := admit(sw)
			if release == nil {
				return
			}
			defer release()
		}
		endpoint(obs.WithTrace(obs.WithRequestID(r.Context(), tr.ID), tr), sw, r)
	}
}

// beginTrace opens the span tree for one request: the (sanitized) request
// ID is assigned and echoed, and an incoming X-Trace-Context — the router's
// scatter legs send one per attempt — makes this tree a child of the
// caller's: same trace ID, parent span ID retained for stitching.
func (fd *FrontDoor) beginTrace(w *StatusRecorder, r *http.Request, rootName string) *obs.Trace {
	id := ensureRequestID(w, r)
	traceID, parent := id, ""
	if tid, sid, ok := obs.ParseTraceContext(r.Header.Get(obs.TraceContextHeader)); ok {
		traceID, parent = tid, sid
	}
	tr := obs.NewTrace(traceID, rootName)
	root := tr.Root()
	if fd.Node != "" {
		root.SetAttr("node", fd.Node)
	}
	if id != traceID {
		root.SetAttr("request_id", id)
	}
	if parent != "" {
		root.SetAttr("parent_span_id", parent)
	}
	return tr
}

// ensureRequestID reads the caller's request ID, sanitizes it (length cap
// plus charset whitelist, so a hostile header cannot forge fields in a
// trace record or a log line), assigns a fresh one when absent or empty
// after filtering, and echoes it on the response — so every answer names
// the ID its flight-recorder record is filed under. The echoed value lives
// in the request's StatusRecorder, at full capacity as http.Header.Set
// would have made it.
func ensureRequestID(w *StatusRecorder, r *http.Request) string {
	id := obs.SanitizeRequestID(r.Header.Get(obs.RequestIDHeader))
	if id == "" {
		id = obs.NewRequestID()
	}
	w.requestID[0] = id
	w.Header()[obs.RequestIDHeader] = w.requestID[:]
	return id
}

// observeRequest finishes one traced request: the end-to-end histogram
// record, the root span's end and the flight-recorder completion. A request
// the recorder classifies as slow keeps its whole tree, served at
// GET /v1/debug/traces?class=slow — there is no separate log of them.
func (fd *FrontDoor) observeRequest(h *obs.Histogram, tr *obs.Trace, start time.Time, sw *StatusRecorder) {
	total := time.Since(start)
	if h != nil {
		h.Record(total)
	}
	tr.Root().EndIn(total)
	fd.Rec.Complete(tr, total, obs.Outcome{Status: sw.Status(), Err: sw.ErrorBody()})
}

// Query is what a /v1/search, /v1/search_batch or /v1/insert body reduces
// to once Decode has validated it, whichever codec it arrived in.
type Query struct {
	// Vector is the one parsed vector of a search or an insert.
	Vector bitvec.Vector
	// Vectors is a batch's parsed queries, indexed like the body's.
	Vectors []bitvec.Vector
	// K is the body's k, or DefaultK when the body omitted it.
	K int
	// Timeout is the body's timeout_ms; zero or less means none was asked for.
	Timeout time.Duration

	// packed records the codec the request came in, which is the codec
	// WriteSearch and WriteSearchBatch answer in.
	packed bool
}

// Decode reads the body of a POST endpoint into body — a *SearchRequest,
// *SearchBatchRequest, *InsertRequest or *DeleteRequest — and validates it
// the one way both tiers do: every vector has Dim bits, a batch is not
// empty, k defaults when omitted and is refused when negative (a delete
// carries nothing beyond its JSON to check). The request's Content-Type
// selects the codec: PackedMediaType on the two search endpoints is the
// packed form of wire.go, which fills the Query and leaves body alone;
// anything else is JSON. On a bad body it writes the 400 (413 past
// MaxBodyBytes) itself and reports false.
func (fd *FrontDoor) Decode(w http.ResponseWriter, r *http.Request, body interface{}) (q Query, ok bool) {
	rd := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if isPacked(r.Header.Get("Content-Type")) {
		q, ok = fd.decodePacked(w, rd, body)
	} else {
		q, ok = fd.decodeJSON(w, rd, body)
	}
	if !ok {
		return q, false
	}
	switch body.(type) {
	case *DeleteRequest, *InsertRequest:
		return q, true
	}
	if q.K == 0 {
		q.K = fd.DefaultK
	}
	if q.K < 0 {
		WriteError(w, http.StatusBadRequest, aperr.ErrBadK.Error())
		return q, false
	}
	return q, true
}

// writeReadError answers a body that could not be read or parsed: 413 when
// it ran past MaxBodyBytes, otherwise 400 with what names the codec.
func writeReadError(w http.ResponseWriter, what string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds "+strconv.FormatInt(tooLarge.Limit, 10)+" bytes")
		return
	}
	WriteError(w, http.StatusBadRequest, what+": "+err.Error())
}

// decodeJSON is Decode's JSON half: the body's first JSON value, then each
// bit string parsed and measured in body order.
func (fd *FrontDoor) decodeJSON(w http.ResponseWriter, rd io.Reader, body interface{}) (q Query, ok bool) {
	if err := json.NewDecoder(rd).Decode(body); err != nil {
		writeReadError(w, "bad JSON", err)
		return q, false
	}
	switch b := body.(type) {
	case *DeleteRequest:
		return q, true
	case *InsertRequest:
		q.Vector, ok = fd.vector(w, "vector", "vector", -1, b.Vector)
		return q, ok
	case *SearchRequest:
		q.K, q.Timeout = b.K, time.Duration(b.TimeoutMS)*time.Millisecond
		q.Vector, ok = fd.vector(w, "query vector", "query", -1, b.Query)
		return q, ok
	case *SearchBatchRequest:
		if len(b.Queries) == 0 {
			WriteError(w, http.StatusBadRequest, "empty query batch")
			return q, false
		}
		q.K = b.K
		q.Vectors = make([]bitvec.Vector, len(b.Queries))
		for i, bits := range b.Queries {
			if q.Vectors[i], ok = fd.vector(w, "query vector", "query", i, bits); !ok {
				return q, false
			}
			// With no Dim to hold them to, the members are held to each
			// other: a packed body, which is how the router forwards this
			// batch, carries one dimensionality.
			if d0 := q.Vectors[0].Dim(); q.Vectors[i].Dim() != d0 {
				WriteError(w, http.StatusBadRequest, fmt.Sprintf("query %d has %d bits, query 0 has %d: %v",
					i, q.Vectors[i].Dim(), d0, aperr.ErrDimMismatch))
				return q, false
			}
		}
		return q, true
	default:
		panic(fmt.Sprintf("serve: Decode of unsupported body type %T", body))
	}
}

// decodePacked is Decode's packed half. The body is read into a pooled
// buffer and the vectors copied out of it, so nothing of the request
// outlives this call but the Query.
func (fd *FrontDoor) decodePacked(w http.ResponseWriter, rd io.Reader, body interface{}) (q Query, ok bool) {
	_, single := body.(*SearchRequest)
	if _, batch := body.(*SearchBatchRequest); !single && !batch {
		WriteError(w, http.StatusUnsupportedMediaType, "only the search endpoints take "+PackedMediaType)
		return q, false
	}
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(rd); err != nil {
		writeReadError(w, "bad packed body", err)
		return q, false
	}
	q.packed = true
	var err error
	if q.K, q.Timeout, q.Vectors, err = parsePackedRequest(buf.Bytes()); err != nil {
		WriteError(w, http.StatusBadRequest, "bad packed body: "+err.Error())
		return q, false
	}
	if single && len(q.Vectors) != 1 {
		WriteError(w, http.StatusBadRequest,
			"bad packed body: /v1/search takes one query, got "+strconv.Itoa(len(q.Vectors)))
		return q, false
	}
	if len(q.Vectors) == 0 {
		WriteError(w, http.StatusBadRequest, "empty query batch")
		return q, false
	}
	// One packed body carries one dimensionality, so the first query's
	// stands for all of them; a JSON batch of the same vectors would be
	// refused at its member 0 too.
	member, dim := 0, q.Vectors[0].Dim()
	if single {
		q.Vector, q.Vectors, member = q.Vectors[0], nil, -1
	}
	return q, fd.checkDim(w, "query", member, dim)
}

// vector parses one bit string of a JSON body and checks its length against
// Dim. parseNoun and dimNoun name it in the two 400 texts; member ≥ 0
// numbers a batch member in them.
func (fd *FrontDoor) vector(w http.ResponseWriter, parseNoun, dimNoun string, member int, bits string) (bitvec.Vector, bool) {
	v, err := bitvec.ParseBits(bits)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad "+parseNoun+nth(member)+": "+err.Error())
		return v, false
	}
	return v, fd.checkDim(w, dimNoun, member, v.Dim())
}

// checkDim refuses a vector of the wrong dimensionality with the 400 both
// codecs share.
func (fd *FrontDoor) checkDim(w http.ResponseWriter, dimNoun string, member, dim int) bool {
	if fd.Dim <= 0 || dim == fd.Dim {
		return true
	}
	WriteError(w, http.StatusBadRequest, fmt.Sprintf("%s%s has %d bits, %s %d: %v",
		dimNoun, nth(member), dim, fd.Holder, fd.Dim, aperr.ErrDimMismatch))
	return false
}

// nth numbers a batch member in an error text; a lone vector has no number.
func nth(member int) string {
	if member < 0 {
		return ""
	}
	return " " + strconv.Itoa(member)
}

// WriteSearch answers a /v1/search in the codec q came in.
func (q Query) WriteSearch(w http.ResponseWriter, neighbors []knn.Neighbor, flushSize int) {
	if q.packed {
		writePacked(w, flushSize, [][]knn.Neighbor{neighbors})
		return
	}
	WriteJSON(w, http.StatusOK, SearchResponse{Neighbors: neighbors, FlushSize: flushSize})
}

// WriteSearchBatch answers a /v1/search_batch in the codec q came in;
// results is indexed like q.Vectors.
func (q Query) WriteSearchBatch(w http.ResponseWriter, results [][]knn.Neighbor) {
	if q.packed {
		writePacked(w, 0, results)
		return
	}
	WriteJSON(w, http.StatusOK, SearchBatchResponse{Neighbors: results})
}

// SelectTraces answers the part of GET /v1/debug/traces both tiers share:
// the recorder's header block plus the selected records — ?trace_id= returns
// every retained record of one trace (byID reports that form); otherwise
// ?class= (default recent) and ?n= select a newest-first listing. ok=false
// means the 405 or 400 is already written. The router stitches shard-side
// trees into the result before writing it; a node writes it as is.
func (fd *FrontDoor) SelectTraces(w http.ResponseWriter, r *http.Request) (resp DebugTracesResponse, byID, ok bool) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return resp, false, false
	}
	q := r.URL.Query()
	resp = DebugTracesResponse{
		Node:     fd.Node,
		Depth:    fd.Rec.Depth(),
		Recorded: fd.Rec.Recorded(),
		Classes:  fd.Rec.ClassCounts(),
	}
	if id := obs.SanitizeRequestID(q.Get("trace_id")); id != "" {
		resp.Traces = fd.Rec.ByTraceID(id)
		return resp, true, true
	}
	class := q.Get("class")
	if class == "" {
		class = obs.ClassRecent
	}
	if !validTraceClass(class) {
		WriteError(w, http.StatusBadRequest,
			"unknown trace class "+strconv.Quote(class)+": one of "+strings.Join(obs.Classes, "|"))
		return resp, false, false
	}
	n, _ := strconv.Atoi(q.Get("n"))
	resp.Traces = fd.Rec.Class(class, n)
	return resp, false, true
}

// validTraceClass reports whether class names a flight-recorder ring.
func validTraceClass(class string) bool {
	for _, c := range obs.Classes {
		if c == class {
			return true
		}
	}
	return false
}
