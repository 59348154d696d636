package serve

import (
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// StatusRecorder wraps a ResponseWriter to capture the final status code
// and, for error answers, a bounded copy of the body — what the flight
// recorder needs to classify a finished request (shed vs errored vs ok)
// without coupling the handlers to the recorder. Shared with the cluster
// router so both tiers classify identically.
type StatusRecorder struct {
	http.ResponseWriter
	status  int
	errBody []byte
}

// NewStatusRecorder wraps w; handlers must write through the wrapper.
func NewStatusRecorder(w http.ResponseWriter) *StatusRecorder {
	return &StatusRecorder{ResponseWriter: w}
}

func (w *StatusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// errBodyCap bounds how much of an error body a trace record retains.
const errBodyCap = 256

func (w *StatusRecorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.status >= http.StatusBadRequest && len(w.errBody) < errBodyCap {
		take := errBodyCap - len(w.errBody)
		if take > len(p) {
			take = len(p)
		}
		w.errBody = append(w.errBody, p[:take]...)
	}
	return w.ResponseWriter.Write(p)
}

// Status returns the written status, 200 when the handler never set one.
func (w *StatusRecorder) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// ErrorBody returns the captured (bounded, trimmed) error body, "" for
// successful answers.
func (w *StatusRecorder) ErrorBody() string {
	return strings.TrimSpace(string(w.errBody))
}

// handleDebugTraces serves GET /v1/debug/traces: the node's flight
// recorder, selected by ?trace_id= or ?class=/?n=.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if resp, _, ok := s.door.SelectTraces(w, r); ok {
		WriteJSON(w, http.StatusOK, resp)
	}
}

// newFlightRecorder builds the serving tier's recorder at the obs default
// depth and slow factor: the slow classifier compares each request against
// the windowed end-to-end search p99, read through a cache because it is
// asked once per request.
func newFlightRecorder(cfg Config) *obs.FlightRecorder {
	node := cfg.NodeID
	if node == "" {
		node = cfg.Addr
	}
	p99 := searchHist.WindowQuantile(0.99)
	return obs.NewFlightRecorder(node, 0, 0,
		func(now time.Time) int64 {
			ns, _ := p99.At(now)
			return ns
		})
}
