// Package serve is the HTTP serving layer: it turns many concurrent
// single-query requests into the large coalesced batches the Automata
// Processor model rewards. The paper's evaluation (§II-A, §III-C) batches
// queries into one symbol stream so a configuration sweep is paid once per
// batch instead of once per query; an online service only sees one query
// per request, so a dynamic micro-batcher recreates the batch at the
// server: concurrent /v1/search requests coalesce into a single
// Index.Search call when either a size cap fills or a flush window
// expires. Around the batcher sit admission control (bounded in-flight
// requests, 429 + Retry-After when saturated), per-request context
// deadlines propagated into the shard worker pool, live counters on
// /v1/stats, and graceful shutdown that drains in-flight batches.
package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/aperr"
	"repro/internal/apstats"
	"repro/internal/bitvec"
	"repro/internal/heat"
	"repro/internal/obs"
)

// Config tunes a Server. The zero value serves with the defaults below.
type Config struct {
	// MaxBatch is the flush size cap: a forming batch is dispatched as
	// soon as this many queries are pending (default 32).
	MaxBatch int
	// BatchWindow is the flush deadline, measured from the first query of
	// a forming batch (default 2ms). Zero disables coalescing — every
	// query is served in its own backend call.
	BatchWindow time.Duration
	// MaxInFlight bounds admitted requests across /v1/search and
	// /v1/search_batch; excess requests are refused with 429 and a
	// Retry-After header (default 256). With SLOTargetP99 set it becomes
	// the ceiling of the adaptive limit rather than the limit itself.
	MaxInFlight int
	// MaxConcurrentFlushes bounds how many dispatched flushes may run
	// backend calls at once (apserve -max-flushes). The default 0 leaves
	// dispatch unbounded — the next batch forms while the backend streams
	// the current one. Bounding it models a backend with that many
	// independent execution slots (boards); when every slot is busy a
	// dispatched flush waits, and that wait is charged to its members'
	// queue wait — which makes backlog visible to the SLO controller
	// instead of hiding inside backend latency.
	MaxConcurrentFlushes int
	// SLOTargetP99, when positive, enables SLO-adaptive admission
	// (apserve -slo-p99): a controller watches the windowed queue-wait p99
	// and moves the in-flight limit AIMD-style between 1 and MaxInFlight,
	// shedding with 429 + a computed Retry-After before the tail breaches
	// this target. Zero keeps the static MaxInFlight behavior.
	SLOTargetP99 time.Duration
	// DefaultK answers requests that omit k (default 10).
	DefaultK int
	// Dim, when set, is the served dataset's dimensionality and lets the
	// handler refuse a wrong-length query with 400 before it is admitted.
	// Without it a bad-dimension query is only caught inside the backend
	// call, failing the whole coalesced flush it rode in — every innocent
	// rider of that batch would see the one bad client's error.
	Dim int
	// NodeID, when set, adds a node identity block to /v1/stats so a
	// cluster router can attribute aggregated per-shard numbers to this
	// process (see internal/cluster).
	NodeID string
	// Addr is the advertised listen address reported in the node block.
	Addr string
	// Vectors is the served dataset's size at boot, reported in the node
	// block; an index that exposes Len() (a live index) reports its current
	// size instead.
	Vectors int
	// AnomalyTarget, when positive together with DebugDir, arms the anomaly
	// watcher: a windowed search p99 breaching 3×AnomalyTarget dumps a
	// post-mortem bundle (retained traces, window summaries, optional
	// profiles) into DebugDir.
	AnomalyTarget time.Duration
	// DebugDir receives anomaly bundles (apserve passes -data-dir/debug).
	DebugDir string
	// AnomalyProfiles adds heap and goroutine pprof profiles to each bundle.
	AnomalyProfiles bool
	// AnomalyLog, when non-nil, gets one structured line per anomaly trip.
	AnomalyLog *slog.Logger
}

// DefaultBatchWindow is the flush deadline used when Config.BatchWindow is
// zero-valued via DefaultConfig — around 4 reconfiguration latencies of a
// Gen-2 board, long enough to coalesce a bursty arrival, short enough to
// stay invisible next to a configuration sweep.
const DefaultBatchWindow = 2 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.DefaultK <= 0 {
		c.DefaultK = 10
	}
	return c
}

// DefaultConfig is the serving shape apserve starts with.
func DefaultConfig() Config {
	return Config{BatchWindow: DefaultBatchWindow}.withDefaults()
}

// Mutable is the write surface of a live index. apknn.LiveIndex implements
// it; a Server whose Index also implements Mutable serves /v1/insert and
// /v1/delete, otherwise those endpoints answer 501.
type Mutable interface {
	Insert(ctx context.Context, v bitvec.Vector) (int, error)
	Delete(ctx context.Context, id int) error
}

// Server serves one compiled Index over the /v1 HTTP JSON API. Create it
// with New, mount Handler on any http.Server, and Close it to drain.
type Server struct {
	idx     apstats.Index
	mut     Mutable // non-nil when idx is a live index
	cfg     Config
	batcher *batcher
	// inflight/limit are the admission gate: a request is admitted while
	// inflight < limit. Static mode pins limit at MaxInFlight; with an SLO
	// target the controller is the only writer of limit.
	inflight atomic.Int64
	limit    atomic.Int64
	slo      *sloController // non-nil when cfg.SLOTargetP99 > 0
	heat     *heat.Tracker
	door     FrontDoor
	anomaly  *obs.AnomalyWatcher // non-nil when cfg.AnomalyTarget > 0 and DebugDir is set
	m        *metrics
	streams  streamSet // upgraded /v1/stream connections
	closed   atomic.Bool
	mux      *http.ServeMux
	started  time.Time
}

// New builds a Server around an already-opened Index. The Index must be
// safe for concurrent use (every apknn backend is). An Index that also
// implements Mutable — apknn.OpenLive's — additionally gets the /v1/insert
// and /v1/delete endpoints.
func New(idx apstats.Index, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		idx:     idx,
		cfg:     cfg,
		heat:    heat.NewTracker(analyticsTopK),
		m:       newMetrics(),
		started: time.Now(),
	}
	set := &s.m.set
	s.limit.Store(int64(cfg.MaxInFlight))
	set.Gauge("apknn_serve_inflight", "Requests currently holding an admission slot",
		func() float64 { return float64(s.inflight.Load()) })
	set.Gauge("apknn_serve_inflight_limit",
		"Current admission limit (static cap, or the SLO controller's dynamic limit)",
		func() float64 { return float64(s.limit.Load()) })
	set.Gauge("apknn_serve_stream_connections", "Open /v1/stream connections (router legs), idle or answering a frame",
		func() float64 { return float64(s.streams.count()) })
	if cfg.SLOTargetP99 > 0 {
		s.slo = newSLOController(cfg.SLOTargetP99, &s.limit, &s.inflight, int64(cfg.MaxInFlight), set)
		go s.slo.run()
	}
	s.mut, _ = idx.(Mutable)
	s.batcher = newBatcher(idx, cfg.MaxBatch, cfg.BatchWindow, cfg.MaxConcurrentFlushes, s.m)
	s.door = FrontDoor{Node: cfg.NodeID, Rec: newFlightRecorder(cfg),
		Dim: cfg.Dim, Holder: "dataset has", DefaultK: cfg.DefaultK}
	s.door.Rec.Register(set)
	if cfg.AnomalyTarget > 0 && cfg.DebugDir != "" {
		s.anomaly = obs.NewAnomalyWatcher(obs.AnomalyConfig{
			Target:   cfg.AnomalyTarget,
			Dir:      cfg.DebugDir,
			Profiles: cfg.AnomalyProfiles,
			Logger:   cfg.AnomalyLog,
		}, func(now time.Time) int64 {
			return searchHist.WindowSnapshot(now).Quantile(0.99)
		}, s.door.Rec, obs.Default)
		s.anomaly.Register(set)
	}
	sets := []*obs.Set{set}
	if metered, ok := idx.(apstats.Metered); ok {
		sets = append(sets, metered.Metrics())
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/search", s.door.Handle("serve.search", searchHist, s.admit, s.handleSearch))
	s.mux.HandleFunc("/v1/search_batch", s.door.Handle("serve.search_batch", searchBatchHist, s.admit, s.handleSearchBatch))
	s.mux.HandleFunc("/v1/insert", s.door.Handle("serve.insert", nil, s.admitMutation, s.handleInsert))
	s.mux.HandleFunc("/v1/delete", s.door.Handle("serve.delete", nil, s.admitMutation, s.handleDelete))
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/analytics", s.handleAnalytics)
	s.mux.HandleFunc("/v1/debug/traces", s.handleDebugTraces)
	s.mux.HandleFunc(streamPath, s.handleStream)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", MetricsHandler(sets...))
	return s
}

// Handler returns the API handler, mountable on any http.Server or mux.
// Its /v1/stream route (see stream.go) hands every frame to the handler of
// the http.Server that accepted the connection, so a handler wrapped around
// this one sees frames as it sees HTTP requests.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats snapshots the serving-layer counters, including the SLO
// controller's state block when adaptive admission is enabled.
func (s *Server) Stats() apstats.ServingStats {
	st := s.m.snapshot()
	if s.slo != nil {
		st.SLO = s.slo.stats()
	}
	return st
}

// Index returns the served index, for callers that co-host the server and
// want the backend counters too.
func (s *Server) Index() apstats.Index { return s.idx }

// Close performs graceful shutdown of the serving layer: new requests are
// refused with 503, queued requests are flushed in one final batch, and
// the call waits — bounded by ctx — until every in-flight flush has
// delivered its responses. Streams, which http.Server.Shutdown does not
// know about, close here: an idle one at once, one answering a frame after
// its reply; any still open when ctx ends are cut. Call it after (not
// instead of) draining the HTTP listener with http.Server.Shutdown.
func (s *Server) Close(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.slo != nil {
		s.slo.close()
	}
	if s.anomaly != nil {
		s.anomaly.Close()
	}
	s.streams.drain()
	err := s.batcher.close(ctx)
	if err == nil {
		err = waitBounded(ctx, &s.streams.wg)
	}
	if err != nil {
		s.streams.abort()
	}
	return err
}

// admit reserves an in-flight slot, answering 429 with Retry-After when
// the server is saturated and 503 when it is shutting down. The returned
// release func is non-nil iff admission succeeded. The gate is a CAS loop
// over the inflight counter against the (possibly controller-moved) limit,
// so admission stays lock-free in both modes.
func (s *Server) admit(w http.ResponseWriter) func() {
	if s.closed.Load() {
		WriteError(w, http.StatusServiceUnavailable, errClosed.Error())
		return nil
	}
	for {
		cur := s.inflight.Load()
		limit := s.limit.Load()
		if cur >= limit {
			s.m.rejected.Add(1)
			if s.slo != nil {
				s.slo.shed.Add(1)
				// The adaptive shed computes Retry-After from the observed
				// queue-wait tail: by then the queue the client would have
				// joined has turned over.
				w.Header().Set("Retry-After", strconv.Itoa(s.slo.retryAfterSeconds()))
				WriteError(w, http.StatusTooManyRequests, fmt.Sprintf(
					"serve: shedding at %d in flight to hold queue-wait p99 under %s",
					limit, s.cfg.SLOTargetP99))
				return nil
			}
			// One batch window from now the queue has turned over at least
			// once; round up so the header stays meaningful at ms windows.
			retry := int(s.cfg.BatchWindow/time.Second) + 1
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			WriteError(w, http.StatusTooManyRequests,
				fmt.Sprintf("serve: %d requests already in flight", s.cfg.MaxInFlight))
			return nil
		}
		if s.inflight.CompareAndSwap(cur, cur+1) {
			if s.slo != nil {
				s.slo.admitted.Add(1)
			}
			return func() { s.inflight.Add(-1) }
		}
	}
}

// handleSearch serves POST /v1/search behind the front door: one query
// destined for the micro-batcher.
func (s *Server) handleSearch(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var body SearchRequest
	q, ok := s.door.Decode(w, r, &body)
	if !ok {
		return
	}
	s.heat.Observe(heatKey(q.Vector))

	if q.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.Timeout)
		defer cancel()
	}
	req := &request{ctx: ctx, query: q.Vector, k: q.K, enqueued: time.Now(), trace: obs.TraceFrom(ctx)}
	resp, err := s.batcher.do(req)
	switch {
	case errors.Is(err, errClosed):
		WriteError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		WriteError(w, statusFor(err), err.Error())
	case resp.err == nil:
		q.WriteSearch(w, resp.neighbors, resp.flushSize)
	case ctx.Err() != nil:
		// Whatever the flush made of it, a request whose own context ended is
		// told so in the context's words.
		WriteError(w, http.StatusGatewayTimeout, ctx.Err().Error())
	default:
		WriteError(w, statusFor(resp.err), resp.err.Error())
	}
}

// handleSearchBatch serves POST /v1/search_batch: a client-formed batch
// answered in one backend call.
func (s *Server) handleSearchBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var body SearchBatchRequest
	q, ok := s.door.Decode(w, r, &body)
	if !ok {
		return
	}
	for _, v := range q.Vectors {
		s.heat.Observe(heatKey(v))
	}
	// A client-formed batch skips the micro-batcher, so the backend span is
	// opened here; backend-internal spans (kernel scan, delta scan) nest
	// under it via the context.
	bspan := obs.StartSpan(ctx, "backend")
	bspan.SetInt("flush_size", int64(len(q.Vectors)))
	backendStart := time.Now()
	results, err := s.idx.Search(obs.WithSpan(ctx, bspan), q.Vectors, q.K)
	backendDur := time.Since(backendStart)
	bspan.EndIn(backendDur)
	backendHist.Record(backendDur)
	if err != nil {
		WriteError(w, statusFor(err), err.Error())
		return
	}
	s.m.batchRequests.Add(1)
	q.WriteSearchBatch(w, results)
}

// handleInsert serves POST /v1/insert on a live index: the vector lands in
// the delta segment and is searchable the moment the response is written;
// the board reconfiguration is deferred to the next compaction. The trace
// rides the context so the live index's WAL append lands as a span in this
// request's tree.
func (s *Server) handleInsert(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var body InsertRequest
	q, ok := s.door.Decode(w, r, &body)
	if !ok {
		return
	}
	id, err := s.mut.Insert(ctx, q.Vector)
	if err != nil {
		WriteError(w, statusFor(err), err.Error())
		return
	}
	s.m.inserts.Add(1)
	WriteJSON(w, http.StatusOK, InsertResponse{ID: id})
}

// handleDelete serves POST /v1/delete on a live index: the ID is
// tombstoned and stops appearing in results immediately; storage is
// reclaimed by the next compaction.
func (s *Server) handleDelete(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var body DeleteRequest
	if _, ok := s.door.Decode(w, r, &body); !ok {
		return
	}
	if err := s.mut.Delete(ctx, body.ID); err != nil {
		WriteError(w, statusFor(err), err.Error())
		return
	}
	s.m.deletes.Add(1)
	WriteJSON(w, http.StatusOK, DeleteResponse{ID: body.ID, Deleted: true})
}

// admitMutation is the admission gate of the mutation endpoints: 501 when
// the served index is not live, then the same admission control searches
// pass through.
func (s *Server) admitMutation(w http.ResponseWriter) func() {
	if s.mut == nil {
		WriteError(w, http.StatusNotImplemented,
			"index is not live: start apserve with -live to enable mutations")
		return nil
	}
	return s.admit(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	WriteJSON(w, http.StatusOK, StatsResponse{
		Backend:       s.idx.Stats(),
		Serving:       s.Stats(),
		ModeledTimeNS: int64(s.idx.ModeledTime()),
		Node:          s.nodeInfo(),
		Latency:       obs.Default.Summaries(),
		LatencyWindow: obs.Default.WindowSummaries(time.Now()),
	})
}

// analyticsTopK is how many hot queries /v1/analytics reports.
const analyticsTopK = 10

// handleAnalytics serves GET /v1/analytics: the query-heat block (top
// queries by frequency with space-saving error bounds) plus this node's
// load counters — the signal a hot-query cache or a shard-split advisor
// consumes, and what aprouter aggregates across the fleet.
func (s *Server) handleAnalytics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.idx.Stats()
	load := ShardLoad{
		Queries:           st.Queries,
		Batches:           st.Batches,
		CandidatesScanned: st.CandidatesScanned,
		BytesScanned:      st.CandidatesScanned * int64(vectorBytes(s.cfg.Dim)),
	}
	if st.Live != nil {
		load.DeltaSize = st.Live.DeltaSize
	}
	if sized, ok := s.idx.(interface{ Len() int }); ok {
		load.Vectors = sized.Len()
	} else {
		load.Vectors = s.cfg.Vectors
	}
	// The tracker ranks by its packed keys; ties are reported in bit-string
	// order, so every tracked key is made readable before the cut.
	tracked := s.heat.Top(0)
	for i := range tracked {
		tracked[i].Key = heatKeyBits(tracked[i].Key)
	}
	top := heat.MergeTop(analyticsTopK, tracked)
	hot := make([]HotQuery, len(top))
	for i, e := range top {
		hot[i] = HotQuery{Key: e.Key, Count: e.Count, Err: e.Err}
	}
	WriteJSON(w, http.StatusOK, AnalyticsResponse{
		Node:            s.nodeInfo(),
		QueriesObserved: s.heat.Total(),
		TopQueries:      hot,
		Load:            load,
	})
}

// heatKey is the heat tracker's key for one query: its dimensionality, then
// its packed words, little-endian — eight bytes a word where the bit string
// is sixty-four. Equal vectors have equal keys whatever codec or spacing they
// arrived in, and only /v1/analytics, which shows a handful of them, pays
// for the readable form (heatKeyBits).
func heatKey(v bitvec.Vector) string {
	var stack [4 + 8*8]byte // no heap temporary up to 512 bits
	b := binary.LittleEndian.AppendUint32(stack[:0], uint32(v.Dim()))
	for _, w := range v.Words() {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return string(b)
}

// heatKeyBits renders a heatKey as the canonical bit string Vector.String
// prints — the key form of /v1/analytics and of the router's merge over it.
func heatKeyBits(key string) string {
	b := []byte(key)
	words := make([]uint64, (len(b)-4)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(b[4+8*i:])
	}
	return bitvec.FromWords(int(binary.LittleEndian.Uint32(b)), words).String()
}

// vectorBytes is the packed size of one dim-bit vector — the per-candidate
// cost a scan pays, used to convert candidates scanned into bytes scanned.
// An unconfigured dim reports zero rather than guessing.
func vectorBytes(dim int) int {
	if dim <= 0 {
		return 0
	}
	return (dim + 63) / 64 * 8
}

// nodeInfo builds the /v1/stats identity block, nil when the server has no
// cluster identity configured.
func (s *Server) nodeInfo() *NodeInfo {
	if s.cfg.NodeID == "" {
		return nil
	}
	vectors := s.cfg.Vectors
	if sized, ok := s.idx.(interface{ Len() int }); ok {
		vectors = sized.Len()
	}
	idSpace := vectors
	if hw, ok := s.idx.(interface{ NextID() int }); ok {
		idSpace = hw.NextID()
	}
	return &NodeInfo{
		ID:       s.cfg.NodeID,
		Addr:     s.cfg.Addr,
		UptimeNS: time.Since(s.started).Nanoseconds(),
		Vectors:  vectors,
		IDSpace:  idSpace,
		Dim:      s.cfg.Dim,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	status := "ok"
	code := http.StatusOK
	if s.closed.Load() {
		status = "shutting down"
		code = http.StatusServiceUnavailable
	}
	st := s.idx.Stats()
	WriteJSON(w, code, HealthResponse{
		Status:  status,
		Backend: string(st.Backend),
		Boards:  st.Boards,
	})
}

// statusFor maps engine errors onto HTTP statuses: caller mistakes are
// 400s, a missing ID is 404, deadline/cancellation is 504, anything else
// is a 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, aperr.ErrDimMismatch), errors.Is(err, aperr.ErrBadK):
		return http.StatusBadRequest
	case errors.Is(err, aperr.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, aperr.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// WriteJSON writes v as compact JSON with the given status — the one
// response-writing convention of the /v1 wire format, shared with the
// cluster router so both tiers emit byte-identical envelopes.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // a client that hung up has nobody to report to
}

// WriteError writes the error envelope serve.Client's decoding expects.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, errorResponse{Error: msg})
}
