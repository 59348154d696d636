package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aperr"
	"repro/internal/apstats"
	"repro/internal/heat"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Config tunes a Router. The zero value routes with the defaults below.
type Config struct {
	// HedgeDelay arms hedged reads: if a shard's primary replica has not
	// answered within this delay, the same request is fired at a second
	// replica and the first answer wins (the loser is canceled). Zero
	// disables hedging. Set it near the fleet's p99 so only straggling
	// requests pay the duplicate work.
	HedgeDelay time.Duration
	// AdaptiveHedge derives each leg's hedge delay from the primary
	// replica's own windowed (last-minute) leg p99 instead of the static
	// HedgeDelay, once that replica has enough recent samples; until then
	// HedgeDelay applies (so zero HedgeDelay + AdaptiveHedge hedges nothing
	// during warm-up, then tracks the replica).
	AdaptiveHedge bool
	// ProbeInterval is the background health-check period per replica
	// (default 1s; negative disables the prober — useful in tests that
	// drive probes explicitly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (default 500ms).
	ProbeTimeout time.Duration
	// DefaultK answers requests that omit k (default 10).
	DefaultK int
	// Dim, when set, refuses wrong-length queries with 400 at the router
	// instead of scattering them to every shard.
	Dim int
	// Retry is the per-replica backoff policy for saturated (429/503)
	// answers; see serve.RetryPolicy for the defaults.
	Retry serve.RetryPolicy
	// Logger, when non-nil, receives structured records for replica health
	// transitions (eject on probe/transport failure, readmit on recovery).
	Logger *slog.Logger
	// NodeID names this router in its flight-recorder records and the
	// /v1/debug/traces node field (default "router").
	NodeID string
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.DefaultK <= 0 {
		c.DefaultK = 10
	}
	if c.NodeID == "" {
		c.NodeID = "router"
	}
	return c
}

// statsTimeout bounds each per-node /v1/stats fetch during aggregation.
const statsTimeout = 2 * time.Second

// Router is the stateless scatter-gather tier: it owns no data, only the
// manifest, the replica pool, and the merge. Create it with New, mount
// Handler on an http.Server, Close it on shutdown.
type Router struct {
	manifest  *Manifest
	sets      []*shardSet
	cfg       Config
	m         *metrics
	retry     serve.RetryPolicy // cfg.Retry, counting into m.retries
	door      serve.FrontDoor
	mux       *http.ServeMux
	streams   *serve.StreamTransport // every replica client's transport
	legs      *legWorkers
	probeStop context.CancelFunc
	probeDone chan struct{}
	closed    atomic.Bool
}

// New builds a Router over a validated manifest and starts the background
// health prober (unless ProbeInterval is negative).
func New(m *Manifest, cfg Config) (*Router, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	r := &Router{manifest: m, cfg: cfg, m: newMetrics(), streams: &serve.StreamTransport{},
		legs: newLegWorkers(), probeDone: make(chan struct{})}
	r.m.set.Gauge("apknn_cluster_stream_idle_connections", "Streams to shard replicas pooled between legs",
		func() float64 { return float64(r.streams.IdleConnections()) })
	r.sets = newPool(m, r.streams, r.m.legs)
	r.retry = r.retryPolicy()
	r.m.set.Gauge("apknn_cluster_healthy_replicas", "Replicas the health prober currently admits",
		func() float64 { return float64(r.healthy()) })
	// The recorder runs at the obs default depth and slow factor; its slow
	// classifier compares each request against the windowed routed-search
	// p99, read through a cache because it is asked once per request.
	p99 := clusterSearchHist.WindowQuantile(0.99)
	rec := obs.NewFlightRecorder(cfg.NodeID, 0, func(now time.Time) int64 {
		ns, _ := p99.At(now)
		return ns
	})
	r.door = serve.FrontDoor{Node: cfg.NodeID, Rec: rec,
		Dim: cfg.Dim, Holder: "cluster serves", DefaultK: cfg.DefaultK}
	rec.Register(&r.m.set)
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("/v1/search", r.door.Handle("router.search", clusterSearchHist, nil, r.handleSearch))
	r.mux.HandleFunc("/v1/search_batch", r.door.Handle("router.search_batch", clusterSearchBatchHist, nil, r.handleSearchBatch))
	r.mux.HandleFunc("/v1/insert", r.door.Handle("router.insert", nil, nil, r.handleInsert))
	r.mux.HandleFunc("/v1/delete", r.door.Handle("router.delete", nil, nil, r.handleDelete))
	r.mux.HandleFunc("/v1/stats", r.handleStats)
	r.mux.HandleFunc("/v1/analytics", r.handleAnalytics)
	r.mux.HandleFunc("/v1/debug/traces", r.handleDebugTraces)
	r.mux.HandleFunc("/healthz", r.handleHealthz)
	r.mux.HandleFunc("/metrics", serve.MetricsHandler(&r.m.set))
	probeCtx, cancel := context.WithCancel(context.Background())
	r.probeStop = cancel
	if cfg.ProbeInterval > 0 {
		go r.prober(probeCtx)
	} else {
		close(r.probeDone)
	}
	return r, nil
}

// Handler returns the router's API handler, mountable on any http.Server.
func (r *Router) Handler() http.Handler { return r.mux }

// Manifest returns the topology the router was formed with.
func (r *Router) Manifest() *Manifest { return r.manifest }

// Close stops the health prober, releases the parked leg workers and tears
// down the router's own connection pool. It does not touch the shards.
func (r *Router) Close() {
	if r.closed.Swap(true) {
		return
	}
	r.probeStop()
	<-r.probeDone
	r.legs.close()
	r.streams.CloseIdleConnections()
}

// Stats snapshots the router-local counters; per-node attribution is only
// gathered on the /v1/stats endpoint, which fetches every replica.
func (r *Router) Stats() apstats.ClusterStats {
	return apstats.ClusterStats{
		Shards:        len(r.sets),
		Replicas:      r.manifest.NumReplicas(),
		Healthy:       r.healthy(),
		Searches:      r.m.searches.Load(),
		BatchSearches: r.m.batchSearches.Load(),
		Inserts:       r.m.inserts.Load(),
		Deletes:       r.m.deletes.Load(),
		ShardCalls:    r.m.shardCalls.Load(),
		Hedges:        r.m.hedges.Load(),
		HedgeWins:     r.m.hedgeWins.Load(),
		Failovers:     r.m.failovers.Load(),
		Retries:       r.m.retries.Load(),
		Ejected:       r.m.ejected.Load(),
		Readmitted:    r.m.readmitted.Load(),
	}
}

// healthy is how many replicas the router currently admits, over all shards.
func (r *Router) healthy() int {
	n := 0
	for _, set := range r.sets {
		n += set.healthyCount()
	}
	return n
}

func (r *Router) retryPolicy() serve.RetryPolicy {
	p := r.cfg.Retry
	userHook := p.OnRetry
	p.OnRetry = func(attempt int, err error, wait time.Duration) {
		r.m.retries.Add(1)
		if userHook != nil {
			userHook(attempt, err, wait)
		}
	}
	return p
}

// replicaRetriable reports whether err is worth re-sending to a different
// replica: transport-level failures (the node is unreachable) and 5xx/429
// answers. Caller mistakes (4xx) fail the same way everywhere, and our own
// context expiry is nobody's fault.
func replicaRetriable(err error) bool {
	var apiErr *serve.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500 || apiErr.Status == http.StatusTooManyRequests
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// transportFailure reports whether err means the replica never answered at
// all — the only failure that ejects it from the healthy set; a replica
// that answered, even with an error, is alive.
func transportFailure(err error) bool {
	var apiErr *serve.APIError
	return !errors.As(err, &apiErr) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// attemptResult is one replica's answer to one shard leg.
type attemptResult[T any] struct {
	out    T
	err    error
	rep    *replica
	hedged bool
	// span is this attempt's leg span — hedged attempts are sibling spans of
	// the same trace; the winning one gets the winner attr.
	span *obs.Span
	// launched is when this attempt was fired; a winning hedge subtracts the
	// primary's launch from it to report the hedge-win margin.
	launched time.Time
}

// shardCall runs one shard's leg of a scatter with failover and hedging:
// the first candidate replica is tried at once; if the hedge delay expires
// with no answer (and hedging is enabled), the next candidate gets a
// duplicate request and the first success wins, the loser's context
// canceled. A failed attempt fails over to the next untried replica; each
// replica is tried at most once per leg. Unreachable replicas are ejected
// from the healthy set as a side effect. Attempts run on the caller's
// goroutine, one after the other, unless a hedge can fire — only then can
// two be in flight at once.
func shardCall[T any](ctx context.Context, r *Router, set *shardSet,
	call func(context.Context, *serve.Client) (T, error)) (T, error) {
	var none T
	candidates := set.candidates()
	tr := obs.TraceFrom(ctx)
	// attempt is one replica's try, start to finish: counters, leg span,
	// the call, the latency records.
	attempt := func(ctx context.Context, rep *replica, hedged bool) attemptResult[T] {
		launched := time.Now()
		r.m.shardCalls.Add(1)
		set.legs.Add(1)
		// Each attempt is its own child span: hedges become siblings under
		// the request root. The span ID travels upstream in X-Trace-Context,
		// so the shard's own tree can later be stitched under exactly this
		// leg (see handleDebugTraces).
		span := tr.Root().StartChild(set.stage)
		if span != nil {
			spanID := obs.NewSpanID()
			span.SetInt("span_id", int64(spanID))
			span.SetAttr("replica", rep.addr)
			if hedged {
				span.SetBool("hedged", true)
			}
			ctx = obs.WithTraceContext(ctx, tr.ID, spanID)
		}
		out, err := call(ctx, rep.client)
		leg := time.Since(launched)
		legHist.Record(leg)
		span.EndIn(leg)
		if err != nil {
			span.SetAttr("error", err.Error())
		} else {
			// Successful legs feed the replica's latency EWMA and its
			// windowed series — the signal candidate ordering and
			// adaptive hedging read. Failures are scored separately
			// (transport penalties below); canceled hedge losers are
			// neither.
			rep.observe(leg, time.Now())
		}
		return attemptResult[T]{out: out, err: err, rep: rep, hedged: hedged, span: span, launched: launched}
	}
	// failed books one failed attempt and reports whether the leg goes on
	// to another replica (retry) or ends with err.
	var firstErr error
	failed := func(res attemptResult[T]) (retry bool, err error) {
		if transportFailure(res.err) {
			res.rep.penalize(time.Now())
			if res.rep.healthy.Swap(false) {
				r.m.ejected.Add(1)
				r.logHealth("replica ejected", res.rep, res.err)
			}
		}
		if firstErr == nil {
			firstErr = res.err
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
		return replicaRetriable(res.err), res.err
	}
	exhausted := func() error {
		return fmt.Errorf("cluster: shard %d: every replica failed: %w", set.shard, firstErr)
	}

	hedgeDelay := r.cfg.HedgeDelay
	if r.cfg.AdaptiveHedge {
		if d := candidates[0].hedgeDelay(time.Now()); d > 0 {
			hedgeDelay = d
		}
	}
	if hedgeDelay <= 0 || len(candidates) < 2 {
		for i, rep := range candidates {
			if i > 0 {
				r.m.failovers.Add(1)
			}
			res := attempt(ctx, rep, false)
			if res.err == nil {
				if i > 0 {
					res.span.SetBool("winner", true)
				}
				return res.out, nil
			}
			if retry, err := failed(res); !retry {
				return none, err
			}
		}
		return none, exhausted()
	}

	results := make(chan attemptResult[T], len(candidates))
	actx, cancelAttempts := context.WithCancel(ctx)
	defer cancelAttempts()
	next, inflight := 0, 0
	launch := func(hedged bool) {
		rep := candidates[next]
		next++
		inflight++
		go func() { results <- attempt(actx, rep, hedged) }()
	}
	primaryLaunch := time.Now()
	launch(false)
	timer := time.NewTimer(hedgeDelay)
	defer timer.Stop()
	hedgeC := timer.C
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			if next < len(candidates) {
				r.m.hedges.Add(1)
				launch(true)
			}
		case res := <-results:
			inflight--
			if res.err == nil {
				if next > 1 {
					// More than one attempt flew for this leg — mark which
					// sibling actually answered.
					res.span.SetBool("winner", true)
				}
				if res.hedged {
					r.m.hedgeWins.Add(1)
					// The win margin is bounded below by how long the primary
					// had already been in flight when the winner launched.
					hedgeWinHist.RecordNS(int64(res.launched.Sub(primaryLaunch)))
				}
				return res.out, nil
			}
			if retry, err := failed(res); !retry {
				return none, err
			}
			if next < len(candidates) {
				r.m.failovers.Add(1)
				launch(false)
			} else if inflight == 0 {
				return none, exhausted()
			}
		case <-ctx.Done():
			return none, ctx.Err()
		}
	}
}

// scatter runs one leg per shard concurrently — the last shard's on the
// caller's goroutine, so a one-shard cluster hands off none, the others on
// the router's parked leg workers — and returns the per-shard results in
// shard order, failing if any shard fails — exactness
// requires every partition's answer, so a shard with no reachable replica
// fails the query rather than silently narrowing it. A leg is call under
// the router's retry policy: a saturated replica is re-asked before the leg
// fails over.
func scatter[T any](ctx context.Context, r *Router,
	call func(context.Context, *serve.Client) (T, error)) ([]T, error) {
	leg := func(ctx context.Context, c *serve.Client) (out T, err error) {
		err = r.retry.Do(ctx, func() error {
			out, err = call(ctx, c)
			return err
		})
		return out, err
	}
	outs := make([]T, len(r.sets))
	errs := make([]error, len(r.sets))
	last := len(r.sets) - 1
	var wg sync.WaitGroup
	for i, set := range r.sets[:last] {
		wg.Add(1)
		i, set := i, set
		r.legs.run(func() {
			defer wg.Done()
			outs[i], errs[i] = shardCall(ctx, r, set, leg)
		})
	}
	outs[last], errs[last] = shardCall(ctx, r, r.sets[last], leg)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// handleSearch serves POST /v1/search behind the front door. The caller's
// request ID and the span recorder ride ctx: every scatter leg forwards the
// ID upstream and observes its duration. Whatever codec the caller used,
// the legs forward the parsed vector packed (serve.Client.Search).
func (r *Router) handleSearch(ctx context.Context, w http.ResponseWriter, req *http.Request) {
	var body serve.SearchRequest
	q, ok := r.door.Decode(w, req, &body)
	if !ok {
		return
	}
	if q.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.Timeout)
		defer cancel()
	}
	r.m.searches.Add(1)
	// Over-fetch k from every shard: each shard's exact local top-k is a
	// superset of its contribution to the global top-k, so the merge below
	// is byte-identical to a single index over the union.
	outs, err := scatter(ctx, r, func(ctx context.Context, c *serve.Client) (*serve.SearchResponse, error) {
		return c.Search(ctx, q.Vector, q.K)
	})
	if err != nil {
		serve.WriteError(w, clusterStatus(err), err.Error())
		return
	}
	msp := obs.StartSpan(ctx, "merge")
	var merged []knn.Neighbor
	maxFlush := 0
	for i, resp := range outs {
		if resp.FlushSize > maxFlush {
			maxFlush = resp.FlushSize
		}
		merged = knn.MergeTopK(merged, r.toGlobal(i, resp.Neighbors), q.K)
	}
	msp.End()
	q.WriteSearch(w, merged, maxFlush)
}

func (r *Router) handleSearchBatch(ctx context.Context, w http.ResponseWriter, req *http.Request) {
	var body serve.SearchBatchRequest
	q, ok := r.door.Decode(w, req, &body)
	if !ok {
		return
	}
	r.m.batchSearches.Add(1)
	outs, err := scatter(ctx, r, func(ctx context.Context, c *serve.Client) ([][]knn.Neighbor, error) {
		return c.SearchBatch(ctx, q.Vectors, q.K)
	})
	if err != nil {
		serve.WriteError(w, clusterStatus(err), err.Error())
		return
	}
	msp := obs.StartSpan(ctx, "merge")
	merged := make([][]knn.Neighbor, len(q.Vectors))
	for i, results := range outs {
		if len(results) != len(q.Vectors) {
			msp.End()
			serve.WriteError(w, http.StatusBadGateway, fmt.Sprintf(
				"cluster: shard %d answered %d result sets for %d queries", i, len(results), len(q.Vectors)))
			return
		}
		for qi, ns := range results {
			merged[qi] = knn.MergeTopK(merged[qi], r.toGlobal(i, ns), q.K)
		}
	}
	msp.End()
	q.WriteSearchBatch(w, merged)
}

// toGlobal rewrites one shard's neighbors, which the leg decoded for this
// request alone, to global IDs (local + shard base) in place.
func (r *Router) toGlobal(shard int, ns []knn.Neighbor) []knn.Neighbor {
	base := r.sets[shard].base
	for i := range ns {
		ns[i].ID += base
	}
	return ns
}

// ReplicaError reports one replica's failure inside a best-effort mutation.
type ReplicaError struct {
	Addr  string `json:"addr"`
	Error string `json:"error"`
}

// InsertResponse answers POST /v1/insert through the router: the global ID
// assigned by the tail shard plus the quorum-less per-replica outcome.
type InsertResponse struct {
	// ID is the global ID (tail shard base + the node-local ID).
	ID int `json:"id"`
	// Shard is the owning shard the insert was routed to (always the tail).
	Shard int `json:"shard"`
	// Replicas and Acked count the shard's replica set and how many
	// accepted the write.
	Replicas int `json:"replicas"`
	Acked    int `json:"acked"`
	// ReplicaErrors lists the replicas that did not ack; those nodes have
	// diverged until repaired out of band.
	ReplicaErrors []ReplicaError `json:"replica_errors,omitempty"`
}

// DeleteResponse answers POST /v1/delete through the router.
type DeleteResponse struct {
	ID            int            `json:"id"`
	Deleted       bool           `json:"deleted"`
	Shard         int            `json:"shard"`
	Replicas      int            `json:"replicas"`
	Acked         int            `json:"acked"`
	ReplicaErrors []ReplicaError `json:"replica_errors,omitempty"`
}

// StatsResponse answers GET /v1/stats on the router.
type StatsResponse struct {
	Cluster apstats.ClusterStats `json:"cluster"`
	// Latency maps stable metric names (the same ones GET /metrics exports)
	// to quantile summaries; metrics with no samples yet are omitted.
	Latency map[string]obs.Summary `json:"latency,omitempty"`
	// LatencyWindow is the same map over roughly the last minute (6×10s
	// rotating window); metrics with no samples in the window are omitted.
	LatencyWindow map[string]obs.Summary `json:"latency_1m,omitempty"`
}

// broadcastOutcome is one replica's answer to a best-effort write.
type broadcastOutcome struct {
	rep *replica
	id  int
	err error
}

// broadcast sends one mutation to every replica of a shard concurrently —
// quorum-less best-effort: the caller decides what any mix of acks and
// errors means. Unreachable replicas are ejected.
func (r *Router) broadcast(ctx context.Context, set *shardSet,
	do func(context.Context, *serve.Client) (int, error)) []broadcastOutcome {
	outs := make([]broadcastOutcome, len(set.replicas))
	var wg sync.WaitGroup
	for i, rep := range set.replicas {
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			id, err := do(ctx, rep.client)
			if err != nil && transportFailure(err) {
				if rep.healthy.Swap(false) {
					r.m.ejected.Add(1)
					r.logHealth("replica ejected", rep, err)
				}
			}
			outs[i] = broadcastOutcome{rep: rep, id: id, err: err}
		}(i, rep)
	}
	wg.Wait()
	return outs
}

// tally folds a broadcast into what both write handlers report: how many
// replicas acked, the local ID the first acking replica answered, one
// ReplicaError per replica that did not ack, and the first of their errors —
// the one whose status answers a write no replica took.
func tally(outs []broadcastOutcome) (acked, id int, errs []ReplicaError, firstErr error) {
	for _, out := range outs {
		if out.err != nil {
			if firstErr == nil {
				firstErr = out.err
			}
			errs = append(errs, ReplicaError{Addr: out.rep.addr, Error: out.err.Error()})
			continue
		}
		if acked == 0 {
			id = out.id
		}
		acked++
	}
	return acked, id, errs, firstErr
}

// handleInsert routes a live insert to the tail shard — the one owning the
// open end of the global ID range — and writes it to every replica.
func (r *Router) handleInsert(ctx context.Context, w http.ResponseWriter, req *http.Request) {
	var body serve.InsertRequest
	q, ok := r.door.Decode(w, req, &body)
	if !ok {
		return
	}
	set := r.sets[len(r.sets)-1]
	// One insert broadcast at a time per shard, so every replica assigns
	// the same local ID to the same vector (see shardSet.insertMu). Writes
	// through other routers can still interleave — the single-writer
	// deployment is the supported one.
	set.insertMu.Lock()
	outs := r.broadcast(ctx, set, func(ctx context.Context, c *serve.Client) (int, error) {
		return c.Insert(ctx, q.Vector)
	})
	set.insertMu.Unlock()
	acked, id, errs, err := tally(outs)
	if acked == 0 {
		serve.WriteError(w, clusterStatus(err), err.Error())
		return
	}
	r.m.inserts.Add(1)
	serve.WriteJSON(w, http.StatusOK, InsertResponse{
		ID: set.base + id, Shard: set.shard, Replicas: len(set.replicas), Acked: acked, ReplicaErrors: errs,
	})
}

// handleDelete routes a live delete to the shard owning the global ID and
// tombstones it on every replica.
func (r *Router) handleDelete(ctx context.Context, w http.ResponseWriter, req *http.Request) {
	var body serve.DeleteRequest
	if _, ok := r.door.Decode(w, req, &body); !ok {
		return
	}
	owner := r.manifest.Owner(body.ID)
	if owner < 0 {
		serve.WriteError(w, http.StatusNotFound, fmt.Sprintf("cluster: no shard owns ID %d: %v", body.ID, aperr.ErrNotFound))
		return
	}
	set := r.sets[owner]
	local := body.ID - set.base
	outs := r.broadcast(ctx, set, func(ctx context.Context, c *serve.Client) (int, error) {
		return 0, c.Delete(ctx, local)
	})
	acked, _, errs, err := tally(outs)
	if acked == 0 {
		serve.WriteError(w, clusterStatus(err), err.Error())
		return
	}
	r.m.deletes.Add(1)
	serve.WriteJSON(w, http.StatusOK, DeleteResponse{
		ID: body.ID, Deleted: true, Shard: owner, Replicas: len(set.replicas), Acked: acked, ReplicaErrors: errs,
	})
}

// handleStats aggregates ClusterStats: the router's own counters plus a
// per-node block fetched live from every replica's /v1/stats.
func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		serve.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := r.Stats()
	st.PerNode = r.perNode(req.Context())
	serve.WriteJSON(w, http.StatusOK, StatsResponse{
		Cluster:       st,
		Latency:       obs.Default.Summaries(),
		LatencyWindow: obs.Default.WindowSummaries(time.Now()),
	})
}

// routerAnalyticsTopK is how many merged hot queries the router reports —
// the same depth each node reports, so the merge never widens the answer.
const routerAnalyticsTopK = 10

// ShardAnalytics is one shard's heat block inside the router's aggregated
// /v1/analytics answer. Exactly one replica answers per shard (with the
// usual failover); its NodeInfo inside Analytics attributes the numbers.
type ShardAnalytics struct {
	Shard int `json:"shard"`
	// Analytics is the answering replica's own /v1/analytics block; nil
	// when every replica failed (see Error).
	Analytics *serve.AnalyticsResponse `json:"analytics,omitempty"`
	// Error reports a shard whose replicas all failed, instead of failing
	// the whole aggregation — analytics is advisory, not exact.
	Error string `json:"error,omitempty"`
}

// AnalyticsResponse answers GET /v1/analytics on the router: the per-shard
// heat blocks plus a cluster-wide merge of the hot-query lists.
type AnalyticsResponse struct {
	// QueriesObserved sums the reachable shards' heat-tracker totals.
	QueriesObserved uint64 `json:"queries_observed"`
	// TopQueries is the cluster-wide hot-query merge: per-shard counts
	// summed by key, count-descending. Error bounds add up too, so the
	// merged Err stays a valid overcount bound.
	TopQueries []serve.HotQuery `json:"top_queries"`
	// Shards holds each shard's own block, for load-imbalance comparison.
	Shards []ShardAnalytics `json:"shards"`
}

// handleAnalytics aggregates query-heat analytics: one replica per shard is
// asked (failover included), the per-shard blocks are returned verbatim,
// and the top-k lists are merged into a cluster-wide ranking.
func (r *Router) handleAnalytics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		serve.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	out := AnalyticsResponse{Shards: make([]ShardAnalytics, len(r.sets))}
	var wg sync.WaitGroup
	for i, set := range r.sets {
		wg.Add(1)
		go func(i int, set *shardSet) {
			defer wg.Done()
			line := &out.Shards[i]
			line.Shard = set.shard
			sctx, cancel := context.WithTimeout(req.Context(), statsTimeout)
			defer cancel()
			an, err := shardCall(sctx, r, set, func(ctx context.Context, c *serve.Client) (*serve.AnalyticsResponse, error) {
				return c.Analytics(ctx)
			})
			if err != nil {
				line.Error = err.Error()
				return
			}
			line.Analytics = an
		}(i, set)
	}
	wg.Wait()
	var lists [][]heat.Entry
	for i := range out.Shards {
		an := out.Shards[i].Analytics
		if an == nil {
			continue
		}
		out.QueriesObserved += an.QueriesObserved
		lists = append(lists, an.TopQueries)
	}
	// No hot query anywhere answers null, as the router always has.
	if top := heat.MergeTop(routerAnalyticsTopK, lists...); len(top) > 0 {
		out.TopQueries = top
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

// perNode fetches every replica's stats concurrently; a node that cannot be
// reached gets an Error line instead of failing the aggregation.
func (r *Router) perNode(ctx context.Context) []apstats.NodeStats {
	var out []apstats.NodeStats
	var reps []*replica
	for _, set := range r.sets {
		for _, rep := range set.replicas {
			out = append(out, apstats.NodeStats{
				Shard:   set.shard,
				Base:    set.base,
				Addr:    rep.addr,
				Healthy: rep.healthy.Load(),
			})
			reps = append(reps, rep)
		}
	}
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func(rep *replica, line *apstats.NodeStats) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, statsTimeout)
			defer cancel()
			st, err := rep.client.Stats(sctx)
			if err != nil {
				line.Error = err.Error()
				return
			}
			line.Queries = st.Backend.Queries
			line.Batches = st.Backend.Batches
			line.ModeledTimeNS = st.ModeledTimeNS
			if st.Node != nil {
				line.NodeID = st.Node.ID
				line.Vectors = st.Node.Vectors
				line.UptimeNS = st.Node.UptimeNS
			}
		}(rep, &out[i])
	}
	wg.Wait()
	return out
}

// handleHealthz answers 200 while every shard has at least one healthy
// replica, 503 "degraded" otherwise — a load balancer in front of several
// routers can use it directly.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		serve.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	status, code := "ok", http.StatusOK
	for _, set := range r.sets {
		if set.healthyCount() == 0 {
			status, code = fmt.Sprintf("degraded: shard %d has no healthy replica", set.shard), http.StatusServiceUnavailable
			break
		}
	}
	serve.WriteJSON(w, code, serve.HealthResponse{
		Status:  status,
		Backend: "cluster",
		Boards:  len(r.sets),
	})
}

// clusterStatus maps a shard-leg error onto the router's response status:
// an upstream API answer passes through, expiry is 504, and anything
// transport-level is 502.
func clusterStatus(err error) int {
	var apiErr *serve.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusBadGateway
}
