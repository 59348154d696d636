package cluster

import (
	"context"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// stitchTimeout bounds the per-replica trace fetches one stitched answer
// may fan out.
const stitchTimeout = 2 * time.Second

// handleDebugTraces serves GET /v1/debug/traces on the router. The same
// query surface as the shard endpoint (?trace_id=, ?class=, ?n=), plus
// stitching: each router-side record's scatter-leg spans carry the span ID
// and replica address the leg was sent with, so the router fetches the
// shard-side tree by trace ID and grafts it under the exact leg whose span
// ID the shard recorded as its parent. Stitching is on for ?trace_id=
// lookups and off for class listings unless ?stitch=1 — a listing would
// fan out one fetch per record per leg.
func (r *Router) handleDebugTraces(w http.ResponseWriter, req *http.Request) {
	resp, byID, ok := r.door.SelectTraces(w, req)
	if !ok {
		return
	}
	stitch := req.URL.Query().Get("stitch")
	if stitch == "1" || (byID && stitch != "0") {
		var wg sync.WaitGroup
		for _, rec := range resp.Traces {
			wg.Add(1)
			go func(rec *obs.TraceRecord) {
				defer wg.Done()
				r.stitch(req.Context(), rec)
			}(rec)
		}
		wg.Wait()
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// stitch grafts every scatter leg's shard-side tree under it, in place: rec
// was built by the recorder for this read and is the handler's own. Legs
// whose replica cannot answer (or no longer retains the trace) keep a
// stitch_error attr instead of failing the lookup — the router-side tree
// alone is still evidence.
func (r *Router) stitch(ctx context.Context, rec *obs.TraceRecord) {
	// Group this trace's legs by replica address: one fetch per replica
	// answers every leg (hedge siblings included) it served.
	byAddr := make(map[string][]*obs.WireSpan)
	for _, leg := range rec.Root.Children {
		if leg.Attr("span_id") != "" && leg.Attr("replica") != "" {
			byAddr[leg.Attr("replica")] = append(byAddr[leg.Attr("replica")], leg)
		}
	}
	if len(byAddr) == 0 {
		return
	}
	clients := r.clientsByAddr()
	var wg sync.WaitGroup
	var mu sync.Mutex // guards the fetched map
	fetched := make(map[string][]*obs.TraceRecord, len(byAddr))
	errs := make(map[string]string, len(byAddr))
	for addr := range byAddr {
		c, ok := clients[addr]
		if !ok {
			errs[addr] = "replica not in manifest"
			continue
		}
		wg.Add(1)
		go func(addr string, c *serve.Client) {
			defer wg.Done()
			fctx, cancel := context.WithTimeout(ctx, stitchTimeout)
			defer cancel()
			dt, err := c.DebugTraces(fctx, url.Values{"trace_id": {rec.TraceID}})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[addr] = err.Error()
				return
			}
			fetched[addr] = dt.Traces
		}(addr, c)
	}
	wg.Wait()
	for addr, legs := range byAddr {
		for _, leg := range legs {
			if msg, bad := errs[addr]; bad {
				leg.Attrs["stitch_error"] = msg
				continue
			}
			// The shard recorded our leg's span ID as its root's parent —
			// that is the exact attempt (hedges have distinct IDs) whose
			// answer this subtree describes.
			var hit *obs.WireSpan
			for _, srec := range fetched[addr] {
				if srec.Root.Attr("parent_span_id") == leg.Attr("span_id") {
					hit = srec.Root
					break
				}
			}
			if hit == nil {
				leg.Attrs["stitch_error"] = "shard recorder no longer retains this trace"
				continue
			}
			leg.Children = append(leg.Children, hit)
		}
	}
}

// clientsByAddr indexes every replica's client by its address.
func (r *Router) clientsByAddr() map[string]*serve.Client {
	out := make(map[string]*serve.Client)
	for _, set := range r.sets {
		for _, rep := range set.replicas {
			out[rep.addr] = rep.client
		}
	}
	return out
}
