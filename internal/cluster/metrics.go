package cluster

import "repro/internal/obs"

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

// metrics is one Router's counters: each is declared here once — series
// name, help and atomic together — incremented in place on the routing path,
// printed by GET /metrics through the set and read back by Router.Stats for
// the "cluster" block of /v1/stats.
type metrics struct {
	set           obs.Set
	searches      *obs.Counter
	batchSearches *obs.Counter
	inserts       *obs.Counter
	deletes       *obs.Counter
	shardCalls    *obs.Counter
	hedges        *obs.Counter
	hedgeWins     *obs.Counter
	failovers     *obs.Counter
	retries       *obs.Counter
	ejected       *obs.Counter
	readmitted    *obs.Counter
	// legs is shardCalls split by shard; each shardSet counts its own member.
	legs *obs.CounterVec
}

func newMetrics() *metrics {
	m := &metrics{}
	s := &m.set
	m.searches = s.Counter("apknn_cluster_searches_total", "Searches routed via /v1/search")
	m.batchSearches = s.Counter("apknn_cluster_batch_searches_total", "Batches routed via /v1/search_batch")
	m.inserts = s.Counter("apknn_cluster_inserts_total", "Inserts routed to the tail shard")
	m.deletes = s.Counter("apknn_cluster_deletes_total", "Deletes routed to the owning shard")
	m.shardCalls = s.Counter("apknn_cluster_shard_calls_total", "Total shard legs scattered")
	m.hedges = s.Counter("apknn_cluster_hedges_total", "Hedged second requests fired")
	m.hedgeWins = s.Counter("apknn_cluster_hedge_wins_total", "Hedged requests that answered first")
	m.failovers = s.Counter("apknn_cluster_failovers_total", "Legs re-sent to another replica after an error")
	m.retries = s.Counter("apknn_cluster_retries_total", "Saturated answers retried after backoff")
	m.ejected = s.Counter("apknn_cluster_ejected_total", "Replica eject transitions")
	m.readmitted = s.Counter("apknn_cluster_readmitted_total", "Replica readmit transitions")
	m.legs = s.CounterVec("apknn_cluster_shard_legs_total", "Shard legs scattered, per shard", "shard")
	return m
}
