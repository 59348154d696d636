package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/aperr"
	"repro/internal/apstats"
	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/obs"
)

// errClosed reports a submit racing a graceful shutdown; the handler maps
// it to 503.
var errClosed = errors.New("serve: server is shutting down")

// request is one admitted /v1/search query waiting to be coalesced.
type request struct {
	ctx   context.Context
	query bitvec.Vector
	k     int
	// resp receives exactly one response; buffered so a flush never blocks
	// on a handler that already hung up. It is nil for a request that is its
	// own flush: the submitting goroutine runs it and finds the response in
	// out.
	resp chan response
	out  response
	// enqueued marks submission time; the flush subtracts it to charge each
	// member its queue wait.
	enqueued time.Time
	// trace is the request's span recorder; nil when untraced.
	trace *obs.Trace
}

// answer delivers the request's one response.
func (r *request) answer(resp response) {
	if r.resp == nil {
		r.out = resp
		return
	}
	r.resp <- resp
}

type response struct {
	neighbors []knn.Neighbor
	// flushSize is the realized batch this query rode in — the number the
	// benchmark sweeps exist to maximize.
	flushSize int
	err       error
}

// flushCause records what forced a flush; /v1/stats reports the split.
type flushCause int

const (
	flushBySize flushCause = iota
	flushByDeadline
	flushOnClose
	numFlushCauses
)

func (c flushCause) String() string {
	switch c {
	case flushBySize:
		return "size"
	case flushByDeadline:
		return "deadline"
	default:
		return "close"
	}
}

// batcher coalesces concurrent single-query requests into one
// Index.Search call per flush. A flush is forced when maxBatch queries are
// pending (size flush) or when the window expires, measured from the first
// request of the forming batch (deadline flush). A window of zero disables
// coalescing: every request flushes alone, the one-query-per-call serving
// shape the AP model punishes with a full reconfiguration sweep per call —
// and runs it on the request's own goroutine, since there is nobody to wait
// for: no collector loop, no hand-off.
type batcher struct {
	idx      apstats.Index
	maxBatch int
	window   time.Duration
	m        *metrics

	in   chan *request
	quit chan struct{} // closed by close(); submit fails fast after
	done chan struct{} // closed when the loop has exited
	// slots, when non-nil, is the backend-concurrency semaphore: a
	// dispatched flush acquires one before it starts the clock, so time
	// spent waiting for a free slot lands in its members' queue wait.
	slots chan struct{}

	mu      sync.Mutex // guards closed and the submits Add/Wait ordering
	closed  bool
	submits sync.WaitGroup // submit calls still in flight
	flushes sync.WaitGroup // in-flight dispatched flushes
}

func newBatcher(idx apstats.Index, maxBatch int, window time.Duration, maxFlushes int, m *metrics) *batcher {
	b := &batcher{
		idx:      idx,
		maxBatch: maxBatch,
		window:   window,
		m:        m,
		in:       make(chan *request, maxBatch),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if maxFlushes > 0 {
		b.slots = make(chan struct{}, maxFlushes)
	}
	if window > 0 {
		go b.loop()
	} else {
		close(b.done) // nothing is ever queued, so there is no collector
	}
	return b
}

// do answers one admitted request: through the collector loop and whatever
// flush it lands in, or, with coalescing off, as a flush of its own on this
// goroutine. A non-nil error means the request never got into a flush. The
// wait ends the moment the request's own context does — the caller's wait is
// bounded by its deadline, not by the flush that will eventually discard the
// expired member.
func (b *batcher) do(req *request) (response, error) {
	if b.window <= 0 {
		return b.flushAlone(req)
	}
	req.resp = make(chan response, 1)
	if err := b.submit(req); err != nil {
		return response{}, err
	}
	b.m.requests.Add(1)
	select {
	case resp := <-req.resp:
		return resp, nil
	case <-req.ctx.Done():
		return response{err: aperr.Canceled(req.ctx.Err())}, nil
	}
}

// flushAlone is dispatch and runFlush for a batcher that does not coalesce:
// the same closed check, flush accounting and slot wait, without the
// goroutines.
func (b *batcher) flushAlone(req *request) (response, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return response{}, errClosed
	}
	b.flushes.Add(1) // under mu, so close's Wait cannot have begun
	b.mu.Unlock()
	defer b.flushes.Done()
	b.m.requests.Add(1)
	if b.slots != nil {
		// As in dispatch, the wait for a backend slot is queue wait; here it
		// can also end with the request, which is then expired, not flushed.
		select {
		case b.slots <- struct{}{}:
			defer func() { <-b.slots }()
		case <-req.ctx.Done():
			b.m.expired.Add(1)
			return response{err: aperr.Canceled(req.ctx.Err())}, nil
		}
	}
	// A zero-length window expires the moment the request arrives.
	b.runFlush([]*request{req}, flushByDeadline)
	return req.out, nil
}

// submit hands a request to the batching loop, honoring the request's own
// context while the input queue is full and failing fast once the batcher
// is closed. A submit racing close may still win the send after the loop
// has exited; close waits for all in-flight submits and re-drains the
// queue, so an admitted request is never stranded unanswered.
func (b *batcher) submit(req *request) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errClosed
	}
	b.submits.Add(1)
	b.mu.Unlock()
	defer b.submits.Done()
	select {
	case b.in <- req:
		return nil
	case <-b.quit:
		return errClosed
	case <-req.ctx.Done():
		return aperr.Canceled(req.ctx.Err())
	}
}

// loop is the single collector goroutine of a batcher whose window is above
// zero. Flushes are dispatched to worker goroutines so the next batch keeps
// forming while the backend streams the current one.
func (b *batcher) loop() {
	defer close(b.done)
	var pending []*request
	timer := time.NewTimer(time.Hour)
	stopTimer(timer)
	defer timer.Stop()
	for {
		var expire <-chan time.Time
		if len(pending) > 0 {
			expire = timer.C
		}
		select {
		case req := <-b.in:
			pending = append(pending, req)
			if len(pending) == 1 {
				timer.Reset(b.window)
			}
			if len(pending) >= b.maxBatch {
				stopTimer(timer)
				b.dispatch(pending, flushBySize)
				pending = nil
			}
		case <-expire:
			b.dispatch(pending, flushByDeadline)
			pending = nil
		case <-b.quit:
			stopTimer(timer)
			// Flush what this loop collected; close() re-drains b.in for
			// submits that won the send race against shutdown.
			if len(pending) > 0 {
				b.dispatch(pending, flushOnClose)
			}
			return
		}
	}
}

func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

func (b *batcher) dispatch(reqs []*request, cause flushCause) {
	b.flushes.Add(1)
	go func() {
		defer b.flushes.Done()
		if b.slots != nil {
			// Waiting for a backend slot happens before runFlush starts the
			// clock: the wait is queue time the members pay, not backend time.
			b.slots <- struct{}{}
			defer func() { <-b.slots }()
		}
		b.runFlush(reqs, cause)
	}()
}

// runFlush answers one coalesced batch. Members may carry different k
// values; the flush searches for the largest and trims each response back
// down — the top-k of a larger k is exactly the top-k of the smaller.
func (b *batcher) runFlush(reqs []*request, cause flushCause) {
	flushStart := time.Now()
	// Members whose context ended while queued get their error now; their
	// handlers have long since returned, so don't spend board time on them.
	live := make([]*request, 0, len(reqs))
	for _, r := range reqs {
		if err := r.ctx.Err(); err != nil {
			b.m.expired.Add(1)
			r.answer(response{err: aperr.Canceled(err)})
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	// Queue wait is charged per member; assembly once per flush, measured
	// from the batch's first enqueue — how long the window held the batch
	// open before the backend saw it.
	for _, r := range live {
		if !r.enqueued.IsZero() {
			wait := flushStart.Sub(r.enqueued)
			queueHist.Record(wait)
			r.trace.Root().ObserveChild("queue_wait", wait)
		}
	}
	if first := live[0].enqueued; !first.IsZero() {
		assembly := flushStart.Sub(first)
		assemblyHist.Record(assembly)
		for _, r := range live {
			r.trace.Root().ObserveChild("flush_assembly", assembly)
		}
	}
	b.m.flushes.Add(1)
	b.m.flushesBy[cause].Add(1)
	b.m.batchedQueries.Add(int64(len(live)))
	if len(live) > 1 {
		b.m.coalesced.Add(int64(len(live)))
	}

	maxK := 0
	queries := make([]bitvec.Vector, len(live))
	for i, r := range live {
		queries[i] = r.query
		if r.k > maxK {
			maxK = r.k
		}
	}
	ctx, cancel := batchContext(live)
	defer cancel()
	// One backend span is recorded for the whole flush: the flush context
	// does not descend from any single member, so backend-internal spans
	// (kernel scan, delta scan, WAL) nest under this span instead. A flush
	// of one records it in its member's own tree; a shared flush records it
	// in an arena of its own and attaches it to every member's tree once it
	// is complete, a read-only reference they share.
	var fspan *obs.Span
	if len(live) == 1 {
		fspan = live[0].trace.Root().StartChild("backend")
	} else {
		fspan = obs.NewSpan("backend")
	}
	fspan.SetInt("flush_size", int64(len(live)))
	fspan.SetAttr("flush_cause", cause.String())
	backendStart := time.Now()
	results, err := b.idx.Search(obs.WithSpan(ctx, fspan), queries, maxK)
	backendDur := time.Since(backendStart)
	fspan.EndIn(backendDur)
	backendHist.Record(backendDur)
	if len(live) > 1 {
		for _, r := range live {
			r.trace.Root().AttachChild(fspan)
		}
	}
	for i, r := range live {
		if err != nil {
			// A shared-batch failure reaches every rider, but a rider whose
			// own context ended reports its own cancellation, not the
			// batch's fate.
			e := err
			if cerr := r.ctx.Err(); cerr != nil {
				e = aperr.Canceled(cerr)
			}
			r.answer(response{flushSize: len(live), err: e})
			continue
		}
		ns := results[i]
		if len(ns) > r.k {
			ns = ns[:r.k]
		}
		r.answer(response{neighbors: ns, flushSize: len(live)})
	}
}

// batchContext derives the context a coalesced Search runs under: canceled
// only once every member request's own context is done. One hung-up client
// must not abort a batch other clients are still waiting on, but a batch
// whose every rider is gone stops streaming and releases the shard workers
// promptly. A batch of one runs under its member's context as it is.
func batchContext(reqs []*request) (context.Context, context.CancelFunc) {
	if len(reqs) == 1 {
		return reqs[0].ctx, func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for _, r := range reqs {
			select {
			case <-r.ctx.Done():
			case <-ctx.Done():
				return
			}
		}
		cancel()
	}()
	return ctx, cancel
}

// close stops intake, drains every admitted request into one final flush,
// and waits — bounded by ctx — for every in-flight flush to deliver its
// responses. Callers must not invoke it twice (Server.Close guards).
func (b *batcher) close(ctx context.Context) error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	close(b.quit)
	select {
	case <-b.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// Submits that were past the closed check when it flipped resolve
	// promptly now that quit is closed — either into b.in or with
	// errClosed. Wait them out, then answer whatever landed in the queue
	// after the loop stopped reading it.
	if err := waitBounded(ctx, &b.submits); err != nil {
		return err
	}
	var pending []*request
	for stragglers := false; !stragglers; {
		select {
		case req := <-b.in:
			pending = append(pending, req)
		default:
			stragglers = true
		}
	}
	if len(pending) > 0 {
		b.dispatch(pending, flushOnClose)
	}
	return waitBounded(ctx, &b.flushes)
}

// waitBounded is WaitGroup.Wait with a context bound.
func waitBounded(ctx context.Context, wg *sync.WaitGroup) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
