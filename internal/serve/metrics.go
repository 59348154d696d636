package serve

import (
	"net/http"

	"repro/internal/apstats"
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

// metrics is one Server's counters: each is declared here once — series
// name, help and atomic together — incremented in place by the handlers and
// the batcher, printed by GET /metrics through the set and read back by
// snapshot for the "serving" block of /v1/stats.
type metrics struct {
	set            obs.Set
	requests       *obs.Counter
	batchRequests  *obs.Counter
	coalesced      *obs.Counter
	flushes        *obs.Counter
	flushesBy      [numFlushCauses]*obs.Counter
	batchedQueries *obs.Counter
	rejected       *obs.Counter
	expired        *obs.Counter
	inserts        *obs.Counter
	deletes        *obs.Counter
}

func newMetrics() *metrics {
	m := &metrics{}
	s := &m.set
	m.requests = s.Counter("apknn_serve_requests_total", "Requests admitted into the micro-batcher via /v1/search")
	m.batchRequests = s.Counter("apknn_serve_batch_requests_total", "Client-formed batches served via /v1/search_batch")
	m.coalesced = s.Counter("apknn_serve_coalesced_total", "Requests that shared a flush with at least one other request")
	m.flushes = s.Counter("apknn_serve_flushes_total", "Coalesced backend calls issued by the micro-batcher")
	m.flushesBy[flushBySize] = s.Counter("apknn_serve_flushes_by_size_total",
		"Flushes forced by the batch-size cap filling up")
	m.flushesBy[flushByDeadline] = s.Counter("apknn_serve_flushes_by_deadline_total",
		"Flushes forced by the batch window expiring")
	m.flushesBy[flushOnClose] = s.Counter("apknn_serve_flushes_on_close_total",
		"Flushes that drained pending requests during shutdown")
	m.batchedQueries = s.Counter("apknn_serve_batched_queries_total",
		"Queries the micro-batcher handed to the backend, over all flushes")
	m.rejected = s.Counter("apknn_serve_rejected_total", "Requests refused with 429 by admission control")
	m.expired = s.Counter("apknn_serve_expired_total", "Requests whose context ended while queued")
	m.inserts = s.Counter("apknn_serve_inserts_total", "Vectors accepted via /v1/insert")
	m.deletes = s.Counter("apknn_serve_deletes_total", "Tombstones accepted via /v1/delete")
	return m
}

func (m *metrics) snapshot() apstats.ServingStats {
	st := apstats.ServingStats{
		Requests:          m.requests.Load(),
		BatchRequests:     m.batchRequests.Load(),
		Coalesced:         m.coalesced.Load(),
		Flushes:           m.flushes.Load(),
		FlushesBySize:     m.flushesBy[flushBySize].Load(),
		FlushesByDeadline: m.flushesBy[flushByDeadline].Load(),
		FlushesOnClose:    m.flushesBy[flushOnClose].Load(),
		Rejected:          m.rejected.Load(),
		Expired:           m.expired.Load(),
		Inserts:           m.inserts.Load(),
		Deletes:           m.deletes.Load(),
	}
	if st.Flushes > 0 {
		st.MeanBatch = float64(m.batchedQueries.Load()) / float64(st.Flushes)
	}
	return st
}

// MetricsHandler serves GET /metrics for either tier: obs.Default, then the
// given per-instance sets.
func MetricsHandler(sets ...*obs.Set) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			WriteError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		obs.WriteMetrics(w, sets...)
	}
}
