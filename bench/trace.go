package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	apknn "repro"
	"repro/internal/knn"
	"repro/internal/serve"
)

// span is one call into a layer's public function, recorded by the
// benchmark around the call. Spans of one request share Request; Parent
// names the span of the enclosing depth. Times are ns since the trace began.
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	Parent  string `json:"parent,omitempty"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

// replayReq is one request prepared for replay at every depth: results are
// deterministic, so each depth does identical work below it.
type replayReq struct {
	words [][]uint64
	vecs  []apknn.Vector
	body  []byte // the JSON body serve.Client would send
}

// depth is one level of the nested replay: the public function a span
// wraps, innermost first. The program is not instrumented; nesting comes
// from calling the same request one layer further out each time.
type depth struct {
	name string
	call func(ctx context.Context, r *replayReq) error
	// offPath marks a depth measured for its own sake (the scan kernel on a
	// workload whose requests never reach it): it gets spans and a median
	// but no place in the self-time chain.
	offPath bool
}

// Span names, one per layer boundary.
const (
	spanScan    = "knn.ScanBatch"
	spanBackend = "apknn.Index.Search"
	spanHandler = "serve.Handler.ServeHTTP"
	spanClient  = "serve.Client" // over loopback to a serving node; a router leg on routed
	spanRouter  = "cluster.Handler.ServeHTTP"
	spanFront   = "serve.Client(router)"
)

// postJSON drives an http.Handler in process, no socket.
func postJSON(h http.Handler, path string, body []byte) error {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s answered %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

// depths lists the workload's layer boundaries, innermost first.
func (d *driver) depths(legClient *serve.Client) []depth {
	e, sp := d.e, d.e.sp
	nd := e.nodes[0]
	path := "/v1/search"
	if sp.batch > 1 {
		path = "/v1/search_batch"
	}
	scanDS := nd.ds
	if e.live != nil {
		// The live index owns its base; its merged view is the same vector
		// set and the same size, so the bare kernel scans that.
		scanDS = e.live.Dataset()
	}
	// cpuIndex.Search calls the kernel with Workers = NumCPU.
	scanCfg := knn.ScanConfig{Workers: runtime.NumCPU()}
	ds := []depth{
		{name: spanScan, offPath: sp.backend != apknn.CPU, call: func(ctx context.Context, r *replayReq) error {
			_, err := knn.ScanBatch(ctx, scanDS, r.vecs, sp.k, scanCfg)
			return err
		}},
		{name: spanBackend, call: func(ctx context.Context, r *replayReq) error {
			_, err := nd.idx.Search(ctx, r.vecs, sp.k)
			return err
		}},
		{name: spanHandler, call: func(ctx context.Context, r *replayReq) error {
			return postJSON(nd.srv.Handler(), path, r.body)
		}},
		{name: spanClient, call: func(ctx context.Context, r *replayReq) error {
			_, err := clientSearch(ctx, legClient, sp, r.vecs)
			return err
		}},
	}
	if e.router == nil {
		return ds
	}
	return append(ds,
		depth{name: spanRouter, call: func(ctx context.Context, r *replayReq) error {
			return postJSON(e.router.Handler(), path, r.body)
		}},
		depth{name: spanFront, call: func(ctx context.Context, r *replayReq) error {
			got, err := clientSearch(ctx, e.client, sp, r.vecs)
			if err == nil {
				err = checkReply(got[0], sp.k, r.words[0], e.lookup)
			}
			return err
		}},
	)
}

func (d *driver) newReplayReq() (*replayReq, error) {
	sp := d.e.sp
	r := &replayReq{}
	strs := make([]string, sp.batch)
	for i := 0; i < sp.batch; i++ {
		w := d.e.data.random(d.queries)
		v := d.e.data.vector(w)
		r.words = append(r.words, w)
		r.vecs = append(r.vecs, v)
		strs[i] = v.String()
	}
	var err error
	if sp.batch == 1 {
		r.body, err = json.Marshal(serve.SearchRequest{Query: strs[0], K: sp.k})
	} else {
		r.body, err = json.Marshal(serve.SearchBatchRequest{Queries: strs, K: sp.k})
	}
	return r, err
}

// traced is what the nested replay measured.
type traced struct {
	depths []depth
	spans  []span
	// dur[i][r] is request r's duration at depth i, ns.
	dur [][]int64
	// allocs[i], allocB[i] are heap allocations and bytes per call at depth i.
	allocs, allocB []float64
}

// median is the median span duration at the named depth, 0 if absent.
func (t *traced) median(name string) float64 {
	i := t.index(name)
	if i < 0 {
		return 0
	}
	return medianNS(append([]int64(nil), t.dur[i]...)) // medianNS sorts; dur stays request-ordered
}

// self is the named depth's self time: per request, its span minus the
// span of the next in-path depth inward; the median over requests.
func (t *traced) self(name string) float64 {
	for i, dp := range t.depths {
		if dp.name != name {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			if t.depths[j].offPath {
				continue
			}
			diff := make([]int64, len(t.dur[i]))
			for r := range diff {
				diff[r] = t.dur[i][r] - t.dur[j][r]
			}
			return medianNS(diff)
		}
		return t.median(name) // innermost: all of it is self time
	}
	return 0
}

func (t *traced) index(name string) int {
	for i, dp := range t.depths {
		if dp.name == name {
			return i
		}
	}
	return -1
}

// outermost is the last depth: the span a caller of the system waits on.
func (t *traced) outermost() string { return t.depths[len(t.depths)-1].name }

// unattributedPct is how far the in-path self times fall from summing to
// the outermost median, as a share of it. Medians do not add exactly; a
// large value means the split cannot be trusted for this run.
func (t *traced) unattributedPct() float64 {
	sum := 0.0
	for _, dp := range t.depths {
		if !dp.offPath {
			sum += t.self(dp.name)
		}
	}
	outer := t.median(t.outermost())
	if outer == 0 {
		return 0
	}
	diff := outer - sum
	if diff < 0 {
		diff = -diff
	}
	return 100 * diff / outer
}

// replayChunk is how many requests one depth replays before the next depth
// takes its turn.
const replayChunk = 50

// replay runs n fresh requests through every depth, innermost first; then a
// second pass per depth counts allocations, which a per-call MemStats read
// would distort.
func (d *driver) replay(n int) (*traced, error) {
	e := d.e
	legTransport := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	defer legTransport.CloseIdleConnections()
	legClient := &serve.Client{BaseURL: e.nodes[0].l.url, HTTPClient: &http.Client{Transport: legTransport}}
	depths := d.depths(legClient)
	t := &traced{depths: depths, dur: make([][]int64, len(depths)),
		spans: make([]span, 0, n*len(depths))}
	for i := range t.dur {
		t.dur[i] = make([]int64, 0, n)
	}
	reqs := make([]*replayReq, n)
	for i := range reqs {
		var err error
		if reqs[i], err = d.newReplayReq(); err != nil {
			return nil, err
		}
	}
	call := func(i int, r *replayReq) error {
		d.tally.attempted++
		if err := depths[i].call(d.ctx, r); err != nil {
			d.fail(fmt.Errorf("replay at %s: %w", depths[i].name, err))
			return err
		}
		return nil
	}
	// In chunks: within a chunk each depth runs as its own closed loop, the
	// state the timed phase measures the outermost one in (switching depth
	// on every call leaves the HTTP goroutines parked between loopback
	// calls and made the outermost span read 40 % slow); across chunks the
	// depths alternate, so drift over the run lands on all of them alike.
	origin := time.Now()
	for lo := 0; lo < n; lo += replayChunk {
		for i, dp := range depths {
			if err := call(i, reqs[lo]); err != nil { // unrecorded: wakes this depth's path
				return nil, err
			}
			parent := ""
			if i+1 < len(depths) && !dp.offPath {
				parent = depths[i+1].name
			}
			for r := lo; r < min(lo+replayChunk, n); r++ {
				start := time.Since(origin)
				if err := call(i, reqs[r]); err != nil {
					return nil, err
				}
				end := time.Since(origin)
				t.dur[i] = append(t.dur[i], int64(end-start))
				t.spans = append(t.spans, span{Name: dp.name, Request: r, Parent: parent,
					Start: int64(start), End: int64(end)})
			}
		}
	}
	m := n
	if m > 500 {
		m = 500
	}
	for i := range depths {
		a, b := allocsPer(m, func(r int) { _ = call(i, reqs[r]) })
		t.allocs = append(t.allocs, a)
		t.allocB = append(t.allocB, b)
	}
	return t, nil
}

// writeSpans writes the in-memory spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRun is the separate traced run: a shorter untraced closed loop (the
// reference for tracing overhead and the source of the process-wide and
// program-reported numbers), the nested replay, then the per-layer
// measurements. It fills res with every per-layer metric; a layer this
// workload does not run stays 0.
func tracedRun(d *driver, o options, res *result) (string, error) {
	e, sp := d.e, d.e.sp
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }
	for _, m := range perLayer {
		set(m.name, 0)
	}

	n := sp.replays * o.seconds / manifestSeconds
	if n < 20 {
		n = 20
	}
	t, err := d.replay(n)
	if err != nil {
		return "", err
	}
	// The untraced reference runs after the replay, not before: the first
	// seconds after set-up read several percent slow on this box, which
	// would show as negative tracing overhead.
	ph, err := d.run(time.Duration(o.seconds) * time.Second * 3 / 10)
	if err != nil {
		return "", err
	}
	if err := d.verify(); err != nil {
		return "", err
	}
	procMetrics(ph, set)
	programMetrics(e, ph, set)
	spanMetrics(e, t, set)
	// The replay's spans are as the clock read them, so the like-for-like
	// reference is the untraced loop's p50 as measured.
	untraced := res.Metrics["proc.raw_p50_ms"].Value * 1e6
	set("trace.outermost_ns", t.median(t.outermost()))
	set("trace.overhead_pct", 100*(t.median(t.outermost())-untraced)/untraced)
	set("trace.unattributed_pct", t.unattributedPct())

	if err := layerMetrics(d, o, set); err != nil {
		return "", err
	}
	set("bitvec.load_ms", e.loadMS)
	set("backend.open_ms", e.openMS)
	if e.router != nil {
		set("cluster.resolve_ms", e.resolveMS)
	}

	file := filepath.Join(o.out, "trace-"+sp.name+".jsonl")
	if err := writeSpans(file, t.spans); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	diag := fmt.Sprintf("replayed=%d depths=%d spans=%s", n, len(t.depths), file)
	if res.Metrics["proc.slice_spread_pct"].Value > disturbedPct {
		diag += " disturbed"
	}
	return diag, nil
}

// spanMetrics maps the replay's depths onto the layer table.
func spanMetrics(e *env, t *traced, set func(string, float64)) {
	sp := e.sp
	alloc := func(span, allocs, bytes string) {
		if i := t.index(span); i >= 0 {
			set(allocs, t.allocs[i])
			set(bytes, t.allocB[i])
		}
	}
	scan := t.median(spanScan)
	set("knn.scan_ns", scan)
	if scan > 0 {
		// Computed bytes: every query streams the whole packed set once.
		bytes := float64(e.nodes[0].ds.Len()) * float64(8*e.data.wpv) * float64(sp.batch)
		set("knn.scan_gb_s", bytes/scan)
	}
	alloc(spanScan, "knn.scan_allocs", "knn.scan_alloc_b")

	set("backend.search_ns", t.median(spanBackend))
	if sp.backend == apknn.CPU {
		set("backend.self_ns", t.self(spanBackend))
	}
	alloc(spanBackend, "backend.allocs", "backend.alloc_b")

	set("serve.handler_ns", t.median(spanHandler))
	set("serve.self_ns", t.self(spanHandler))
	set("serve.transport_ns", t.self(spanClient))
	alloc(spanHandler, "serve.handler_allocs", "serve.handler_alloc_b")

	if e.router != nil {
		set("cluster.leg_ns", t.median(spanClient))
		set("cluster.handler_ns", t.median(spanRouter))
		set("cluster.self_ns", t.self(spanRouter))
		set("cluster.transport_ns", t.self(spanFront))
		alloc(spanRouter, "cluster.handler_allocs", "cluster.handler_alloc_b")
	}
}

// procMetrics are the process-wide costs of the untraced phase.
func procMetrics(ph *phase, set func(string, float64)) {
	secs := ph.wall.Seconds()
	b, a := &ph.before, &ph.after
	if ph.allQueries > 0 {
		set("proc.cpu_ms_per_kquery", ms(a.cpu-b.cpu)/float64(ph.allQueries)*1000)
	}
	set("proc.alloc_kb_per_op", float64(a.mem.TotalAlloc-b.mem.TotalAlloc)/1e3/float64(ph.ops))
	set("proc.allocs_per_op", float64(a.mem.Mallocs-b.mem.Mallocs)/float64(ph.ops))
	set("proc.gc_cycles_per_s", float64(a.mem.NumGC-b.mem.NumGC)/secs)
	set("proc.gc_pause_ms_per_s", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6/secs)
	set("proc.slice_spread_pct", sliceSpreadPct(ph.rates))
	set("proc.stolen_pct", ph.stolenPct)
	set("proc.stolen_blocks_pct", 100*float64(ph.stolenBlocks)/float64(ph.blocks))
	set("proc.host_slowdown", ph.slowdown)
	set("proc.raw_p50_ms", float64(ph.rawP50)/1e6)
	set("proc.untraced_p50_ms", float64(percentile(ph.search, 50))/1e6)
	if len(ph.write) > 0 {
		set("live.write_p50_ms", float64(percentile(ph.write, 50))/1e6)
		set("live.write_p99_ms", float64(percentile(ph.write, 99))/1e6)
		set("live.write_p999_ms", float64(percentile(ph.write, 99.9))/1e6)
	}
}

// programMetrics are read from the program's own instruments — Stats() and
// the obs.Default histograms — as deltas over the untraced phase.
func programMetrics(e *env, ph *phase, set func(string, float64)) {
	b, a := &ph.before, &ph.after
	p50us := func(name string) float64 {
		return float64(a.hist[name].Sub(b.hist[name]).Quantile(0.50)) / 1e3
	}
	set("serve.queue_wait_p50_us", p50us("apknn_serve_queue_seconds"))
	set("serve.flush_assembly_p50_us", p50us("apknn_serve_flush_assembly_seconds"))
	set("serve.backend_p50_us", p50us("apknn_serve_backend_seconds"))
	// The serving counters of the first node; on routed, shard 0.
	s0, s1 := b.srv[0], a.srv[0]
	flushes := s1.Flushes - s0.Flushes
	set("serve.flushes", float64(flushes))
	if flushes > 0 {
		set("serve.mean_batch", float64(s1.Requests-s0.Requests)/float64(flushes))
	}
	set("serve.rejected", float64(s1.Rejected-s0.Rejected))
	set("serve.expired", float64(s1.Expired-s0.Expired))

	queries, modeled := ph.modeled()
	var candidates, reconfigs, symbols int64
	for i := range a.idx {
		candidates += a.idx[i].CandidatesScanned - b.idx[i].CandidatesScanned
		reconfigs += a.idx[i].Reconfigs - b.idx[i].Reconfigs
		symbols += a.idx[i].SymbolsStreamed - b.idx[i].SymbolsStreamed
	}
	// A live index counts candidates per base generation: the counter
	// restarts at every compaction, so no delta over a phase exists.
	if queries > 0 && e.live == nil {
		set("backend.candidates_per_query", float64(candidates)/queries)
	}
	if e.sp.backend == apknn.Sharded && queries > 0 {
		set("ap.modeled_us_per_query", float64(modeled)/1e3/queries)
		set("ap.modeled_qps", queries/modeled.Seconds())
		set("ap.reconfigs_per_query", float64(reconfigs)/queries)
		set("ap.symbols_per_query", float64(symbols)/queries)
		set("ap.partitions", float64(a.idx[0].Partitions))
	}
	if e.router != nil {
		searches := float64(a.rtr.Searches - b.rtr.Searches)
		set("cluster.leg_p50_us", p50us("apknn_cluster_leg_seconds"))
		set("cluster.shard_calls_per_search", float64(a.rtr.ShardCalls-b.rtr.ShardCalls)/searches)
		set("cluster.hedges", float64(a.rtr.Hedges-b.rtr.Hedges))
		set("cluster.retries", float64(a.rtr.Retries-b.rtr.Retries))
		set("cluster.failovers", float64(a.rtr.Failovers-b.rtr.Failovers))
	}
	if e.live != nil && a.idx[0].Live != nil && b.idx[0].Live != nil {
		compactions := float64(a.idx[0].Live.Compactions - b.idx[0].Live.Compactions)
		set("live.compactions", compactions)
		if w := len(ph.write); w > 0 {
			set("live.compactions_per_kwrite", compactions/float64(w)*1000)
		}
	}
}
