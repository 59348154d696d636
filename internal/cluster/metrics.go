package cluster

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// The routing tier's latency histograms. Leg latency is per attempt (the
// failed try and its failover both count — each was a real network round
// trip), so the gap between apknn_cluster_search_seconds and the leg series
// is exactly the scatter-gather overhead plus straggler effects.
var (
	// clusterSearchHist is the end-to-end routed /v1/search latency.
	clusterSearchHist = obs.NewHistogram("apknn_cluster_search_seconds",
		"End-to-end routed /v1/search request latency")
	// clusterSearchBatchHist is the end-to-end routed /v1/search_batch latency.
	clusterSearchBatchHist = obs.NewHistogram("apknn_cluster_search_batch_seconds",
		"End-to-end routed /v1/search_batch request latency")
	// legHist is one replica attempt of one shard leg — launch to answer.
	legHist = obs.NewHistogram("apknn_cluster_leg_seconds",
		"Per-attempt shard leg latency, hedges and failovers included")
	// hedgeWinHist records, on each hedge win, how long the primary had
	// already been outstanding when the winning attempt launched — a lower
	// bound on the tail latency the hedge clipped (the full counterfactual is
	// unmeasurable: the loser is canceled before it answers).
	hedgeWinHist = obs.NewHistogram("apknn_cluster_hedge_win_margin_seconds",
		"Primary's elapsed in-flight time at the winning hedge's launch")
)

// handleMetrics serves GET /metrics on the router: every histogram on the
// default registry, the cluster counters, and the per-shard leg counter
// labeled by shard index.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		serve.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	obs.SetMetricsHeaders(w)
	obs.WriteBuildInfo(w)
	obs.Default.WritePrometheus(w)
	obs.Default.WriteWindowed(w, time.Now())
	obs.WriteCounter(w, "apknn_debug_traces_recorded_total",
		"Traces completed into the flight recorder", r.door.Rec.Recorded())
	st := r.Stats()
	obs.WriteCounter(w, "apknn_cluster_searches_total",
		"Searches routed via /v1/search", st.Searches)
	obs.WriteCounter(w, "apknn_cluster_batch_searches_total",
		"Batches routed via /v1/search_batch", st.BatchSearches)
	obs.WriteCounter(w, "apknn_cluster_inserts_total",
		"Inserts routed to the tail shard", st.Inserts)
	obs.WriteCounter(w, "apknn_cluster_deletes_total",
		"Deletes routed to the owning shard", st.Deletes)
	obs.WriteCounter(w, "apknn_cluster_shard_calls_total",
		"Total shard legs scattered", st.ShardCalls)
	obs.WriteCounter(w, "apknn_cluster_hedges_total",
		"Hedged second requests fired", st.Hedges)
	obs.WriteCounter(w, "apknn_cluster_hedge_wins_total",
		"Hedged requests that answered first", st.HedgeWins)
	obs.WriteCounter(w, "apknn_cluster_failovers_total",
		"Legs re-sent to another replica after an error", st.Failovers)
	obs.WriteCounter(w, "apknn_cluster_retries_total",
		"Saturated answers retried after backoff", st.Retries)
	obs.WriteCounter(w, "apknn_cluster_ejected_total",
		"Replica eject transitions", st.Ejected)
	obs.WriteCounter(w, "apknn_cluster_readmitted_total",
		"Replica readmit transitions", st.Readmitted)
	legs := make([]obs.LabeledValue, len(r.sets))
	for i, set := range r.sets {
		legs[i] = obs.LabeledValue{Value: strconv.Itoa(set.shard), Count: set.legs.Load()}
	}
	obs.WriteCounterVec(w, "apknn_cluster_shard_legs_total",
		"Shard legs scattered, per shard", "shard", legs)
	obs.WriteGauge(w, "apknn_cluster_healthy_replicas",
		"Replicas the health prober currently admits", float64(st.Healthy))
}
