package serve

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// The serving tier's latency histograms. All of them live on obs.Default, so
// GET /metrics and the /v1/stats latency block read the same series the hot
// path records into.
var (
	// searchHist is the end-to-end /v1/search handler latency: admission,
	// queue wait, flush, response write — what the client actually waited.
	searchHist = obs.NewHistogram("apknn_serve_search_seconds",
		"End-to-end /v1/search request latency")
	// searchBatchHist is the end-to-end /v1/search_batch handler latency.
	searchBatchHist = obs.NewHistogram("apknn_serve_search_batch_seconds",
		"End-to-end /v1/search_batch request latency")
	// queueHist is each coalesced request's wait between submission and its
	// flush starting — the latency cost the batch window charges per query.
	queueHist = obs.NewHistogram("apknn_serve_queue_seconds",
		"Micro-batcher queue wait per coalesced request")
	// assemblyHist is each flush's assembly span: first member enqueued to
	// flush dispatch — how long the batch took to form.
	assemblyHist = obs.NewHistogram("apknn_serve_flush_assembly_seconds",
		"Micro-batch assembly time from first enqueue to flush dispatch")
	// backendHist is the coalesced Index.Search call itself.
	backendHist = obs.NewHistogram("apknn_serve_backend_seconds",
		"Backend Index.Search latency per micro-batch flush")
)

// handleMetrics serves GET /metrics in Prometheus text exposition: every
// histogram on the default registry, then the serving-layer counters. The
// counters are the same atomics /v1/stats snapshots — one source of truth,
// two surfaces.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	obs.SetMetricsHeaders(w)
	obs.WriteBuildInfo(w)
	obs.Default.WritePrometheus(w)
	obs.Default.WriteWindowed(w, time.Now())
	obs.WriteCounter(w, "apknn_debug_traces_recorded_total",
		"Traces completed into the flight recorder", s.door.Rec.Recorded())
	if s.anomaly != nil {
		obs.WriteCounter(w, "apknn_anomaly_dumps_total",
			"Anomaly bundles dumped to the debug directory", s.anomaly.Trips())
	}
	st := s.ctrs.snapshot()
	obs.WriteCounter(w, "apknn_serve_requests_total",
		"Requests admitted into the micro-batcher via /v1/search", st.Requests)
	obs.WriteCounter(w, "apknn_serve_batch_requests_total",
		"Client-formed batches served via /v1/search_batch", st.BatchRequests)
	obs.WriteCounter(w, "apknn_serve_coalesced_total",
		"Requests that shared a flush with at least one other request", st.Coalesced)
	obs.WriteCounter(w, "apknn_serve_flushes_total",
		"Coalesced backend calls issued by the micro-batcher", st.Flushes)
	obs.WriteCounter(w, "apknn_serve_rejected_total",
		"Requests refused with 429 by admission control", st.Rejected)
	obs.WriteCounter(w, "apknn_serve_expired_total",
		"Requests whose context ended while queued", st.Expired)
	obs.WriteCounter(w, "apknn_serve_inserts_total",
		"Vectors accepted via /v1/insert", st.Inserts)
	obs.WriteCounter(w, "apknn_serve_deletes_total",
		"Tombstones accepted via /v1/delete", st.Deletes)
	bst := s.idx.Stats()
	obs.WriteCounter(w, "apknn_backend_queries_total",
		"Queries answered by the backend index", bst.Queries)
	obs.WriteCounter(w, "apknn_backend_batches_total",
		"Batches answered by the backend index", bst.Batches)
	obs.WriteGauge(w, "apknn_serve_inflight",
		"Requests currently holding an admission slot", float64(s.inflight.Load()))
	obs.WriteGauge(w, "apknn_serve_inflight_limit",
		"Current admission limit (static cap, or the SLO controller's dynamic limit)",
		float64(s.limit.Load()))
	if s.slo != nil {
		slo := s.slo.stats()
		obs.WriteGauge(w, "apknn_slo_target_p99_seconds",
			"Queue-wait p99 target the admission controller holds", float64(slo.TargetP99NS)/1e9)
		obs.WriteGauge(w, "apknn_slo_observed_p99_seconds",
			"Windowed queue-wait p99 at the last control tick", float64(slo.ObservedP99NS)/1e9)
		obs.WriteGauge(w, "apknn_slo_limit",
			"Current SLO-adaptive in-flight limit", float64(slo.Limit))
		obs.WriteGauge(w, "apknn_slo_shed_rate",
			"Smoothed fraction of arrivals shed with 429", slo.ShedRate)
	}
}
