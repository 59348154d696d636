// Package apstats is the leaf declaration package under the serving tiers:
// the wire-visible stats structs of GET /v1/stats, and the Index contract a
// server is built around. internal/serve, internal/cluster and internal/live
// import it instead of the root package, so a router or a dashboard links no
// simulator; the root package re-exports every name here as a type alias
// (apknn.Stats, apknn.Index, ...). It holds declarations only and depends on
// nothing but bitvec, knn and obs.
package apstats

import "time"

// Stats is a point-in-time snapshot of an Index's serving counters. Fields
// that do not apply to a backend are zero — only the board-backed backends
// stream symbols, only Approx prunes candidates. The JSON field names are
// part of the serving API: GET /v1/stats on an apserve instance returns
// this struct verbatim under "backend".
type Stats struct {
	// Backend that produced this snapshot.
	Backend BackendKind `json:"backend"`
	// Boards in the fleet (board-backed backends; 1 for the single-device
	// models).
	Boards int `json:"boards"`
	// Partitions is the total board configurations the dataset spans.
	Partitions int `json:"partitions"`
	// Queries served since Open.
	Queries int64 `json:"queries"`
	// Batches answered since Open: one per Search call.
	Batches int64 `json:"batches"`
	// SymbolsStreamed is the total symbol cycles streamed across boards.
	SymbolsStreamed int64 `json:"symbols_streamed"`
	// Reconfigs is the total board configurations loaded (§III-C sweeps).
	Reconfigs int64 `json:"reconfigs"`
	// CandidatesScanned is the total query/candidate distance pairs the
	// backend actually evaluated (CPU/GPU/FPGA scan everything; Approx
	// scans only probed buckets).
	CandidatesScanned int64 `json:"candidates_scanned"`
	// PerBoardTime is each board's modeled wall-clock, shard-ordered.
	// ModeledTime is its maximum for the fleet backends.
	PerBoardTime []time.Duration `json:"per_board_time_ns,omitempty"`
	// Live is the mutable-index block, present only for indexes opened
	// with OpenLive.
	Live *LiveStats `json:"live,omitempty"`
	// Durability is the write-ahead-log block, present only for live
	// indexes opened with WithDurability.
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// LiveStats is the mutable-index snapshot of an OpenLive index: how much
// churn is pending in the delta segment and tombstone set, how often the
// background compactor has folded it back into a compiled base, and what
// the churn cost in modeled time. GET /v1/stats on a live apserve reports
// it under "backend.live".
type LiveStats struct {
	// Inserts accepted since OpenLive.
	Inserts int64 `json:"inserts"`
	// Deletes accepted since OpenLive.
	Deletes int64 `json:"deletes"`
	// BaseSize is the vector count of the current compiled base.
	BaseSize int `json:"base_size"`
	// DeltaSize is the current delta-segment length (tombstoned entries
	// included until the next compaction reclaims them).
	DeltaSize int `json:"delta_size"`
	// Tombstones is the current tombstone-set size.
	Tombstones int `json:"tombstones"`
	// Compactions is how many times the compactor swapped in a fresh base.
	Compactions int64 `json:"compactions"`
	// CompactionFailures is how many compactions (background or explicit)
	// failed and left the previous base serving.
	CompactionFailures int64 `json:"compaction_failures"`
	// Generation numbers the current base compilation; 0 is the seed.
	Generation int64 `json:"generation"`
	// MixedSearches counts searches answered while churn was pending —
	// served from the compiled base and the delta/tombstone overlay
	// together rather than one clean generation.
	MixedSearches int64 `json:"mixed_searches"`
	// ReconfigTime is the modeled reconfiguration time compactions have
	// charged (the paper's symbol-replacement sweep, once per compaction
	// instead of once per mutation).
	ReconfigTime time.Duration `json:"reconfig_time_ns"`
	// DeltaScanTime is the modeled CPU time of the exact delta scans.
	DeltaScanTime time.Duration `json:"delta_scan_time_ns"`
}

// DurabilityStats is the write-ahead-log snapshot of a durable live index:
// how much has been logged and synced since open, what recovery replayed at
// boot, and how stale the newest snapshot is (the length of the log a crash
// right now would replay). GET /v1/stats on a durable apserve reports it
// under "backend.durability".
type DurabilityStats struct {
	// Dir is the durability directory.
	Dir string `json:"dir"`
	// Fsync is the active sync policy: "always", "interval" or "never".
	Fsync string `json:"fsync"`
	// Appends is the number of WAL records appended since open.
	Appends int64 `json:"appends"`
	// AppendedBytes is the total record bytes appended since open.
	AppendedBytes int64 `json:"appended_bytes"`
	// Fsyncs is the number of fsync calls issued on the log.
	Fsyncs int64 `json:"fsyncs"`
	// WALSize is the current log length in bytes, replayed prefix included.
	WALSize int64 `json:"wal_size"`
	// Recovered reports whether this index was reconstructed from prior
	// durable state (false: the directory was seeded fresh).
	Recovered bool `json:"recovered"`
	// ReplayedRecords is how many log records recovery applied at open.
	ReplayedRecords int64 `json:"replayed_records"`
	// ReplayedBytes is the valid record bytes recovery replayed at open.
	ReplayedBytes int64 `json:"replayed_bytes"`
	// ReplayTorn reports that the log ended in a partial record that was
	// truncated away at open — the signature of a crash mid-append.
	ReplayTorn bool `json:"replay_torn"`
	// SnapshotGeneration numbers the newest on-disk snapshot.
	SnapshotGeneration int64 `json:"snapshot_generation"`
	// SnapshotAge is how long ago that snapshot was written (or loaded,
	// after recovery) — the staleness bound on the next recovery's replay.
	SnapshotAge time.Duration `json:"snapshot_age_ns"`
}

// ServingStats is the micro-batcher and admission-control snapshot of the
// HTTP serving layer (internal/serve). The batch window only earns its keep
// on the AP fleet when concurrent requests actually coalesce, so the layer
// counts exactly that: how many requests rode a shared flush, what forced
// each flush (the size cap, the deadline, or shutdown drain), and how many
// requests admission control turned away. GET /v1/stats reports this struct
// under "serving".
type ServingStats struct {
	// Requests admitted into the micro-batcher via /v1/search.
	Requests int64 `json:"requests"`
	// BatchRequests served directly via /v1/search_batch (pre-batched by
	// the client, never coalesced).
	BatchRequests int64 `json:"batch_requests"`
	// Coalesced is the number of requests that shared a flush with at
	// least one other request — the coalescing win the window buys.
	Coalesced int64 `json:"coalesced"`
	// Flushes is the total Index.Search calls the batcher issued.
	Flushes int64 `json:"flushes"`
	// FlushesBySize were forced by the batch-size cap filling up.
	FlushesBySize int64 `json:"flushes_by_size"`
	// FlushesByDeadline were forced by the batch window expiring — with a
	// zero window (coalescing disabled) every flush lands here, since the
	// deadline expires the moment a request arrives.
	FlushesByDeadline int64 `json:"flushes_by_deadline"`
	// FlushesOnClose drained pending requests during graceful shutdown.
	FlushesOnClose int64 `json:"flushes_on_close"`
	// Rejected counts requests refused with 429 by admission control.
	Rejected int64 `json:"rejected"`
	// Inserts accepted via /v1/insert (live indexes only).
	Inserts int64 `json:"inserts"`
	// Deletes accepted via /v1/delete (live indexes only).
	Deletes int64 `json:"deletes"`
	// Expired counts requests whose context ended while they waited in
	// the queue; they never reached the backend.
	Expired int64 `json:"expired"`
	// MeanBatch is the mean realized flush size (queries per backend
	// call); 0 until the first flush.
	MeanBatch float64 `json:"mean_batch"`
	// SLO is the adaptive admission controller's state, present only when
	// the server runs with an SLO target (apserve -slo-p99).
	SLO *SLOStats `json:"slo,omitempty"`
}

// SLOStats is the SLO-adaptive admission controller's state block inside
// ServingStats: what tail it is steering toward, what it currently
// observes over its sliding window, and where the dynamic in-flight limit
// sits between its floor and the static cap. GET /v1/stats reports it
// under "serving.slo"; /metrics exports the same values as apknn_slo_*
// gauges.
type SLOStats struct {
	// TargetP99NS is the queue-wait p99 the controller holds the tail to.
	TargetP99NS int64 `json:"target_p99_ns"`
	// ObservedP99NS is the windowed queue-wait p99 at the last control
	// tick — the signal the limit moved on.
	ObservedP99NS int64 `json:"observed_p99_ns"`
	// Limit is the current dynamic in-flight admission limit.
	Limit int64 `json:"limit"`
	// InFlight is the number of requests currently holding a slot.
	InFlight int64 `json:"inflight"`
	// ShedRate is the smoothed fraction of arrivals refused with 429 over
	// the controller's recent ticks, in [0,1].
	ShedRate float64 `json:"shed_rate"`
	// Increases / Decreases count limit movements: additive raises while
	// under target, multiplicative cuts on a breach.
	Increases int64 `json:"increases"`
	Decreases int64 `json:"decreases"`
}

// ClusterStats is the routing-tier snapshot of a multi-node cluster
// (internal/cluster, cmd/aprouter): scatter-gather, replication and hedging
// counters, plus a per-node block attributing shard-local numbers fetched
// from each node's /v1/stats. GET /v1/stats on an aprouter reports it under
// "cluster".
type ClusterStats struct {
	// Shards is the number of dataset partitions in the manifest.
	Shards int `json:"shards"`
	// Replicas is the total replica endpoints across all shards.
	Replicas int `json:"replicas"`
	// Healthy is how many replicas the health prober currently admits.
	Healthy int `json:"healthy"`
	// Searches routed through /v1/search since boot.
	Searches int64 `json:"searches"`
	// BatchSearches routed through /v1/search_batch since boot.
	BatchSearches int64 `json:"batch_searches"`
	// Inserts routed to the tail shard via /v1/insert.
	Inserts int64 `json:"inserts"`
	// Deletes routed to the owning shard via /v1/delete.
	Deletes int64 `json:"deletes"`
	// ShardCalls is the total per-shard legs scattered (searches × shards,
	// plus failovers and hedges).
	ShardCalls int64 `json:"shard_calls"`
	// Hedges is how many hedged second requests were fired after the hedge
	// delay expired with the primary still silent.
	Hedges int64 `json:"hedges"`
	// HedgeWins is how many hedged requests answered first.
	HedgeWins int64 `json:"hedge_wins"`
	// Failovers is how many legs were re-sent to another replica after an
	// error.
	Failovers int64 `json:"failovers"`
	// Retries is how many 429/503 answers were retried after backoff
	// (honoring Retry-After) against the same replica.
	Retries int64 `json:"retries"`
	// Ejected / Readmitted count health-state transitions: a replica is
	// ejected on a failed probe or transport error and readmitted when a
	// probe succeeds again.
	Ejected    int64 `json:"ejected"`
	Readmitted int64 `json:"readmitted"`
	// PerNode attributes per-shard numbers to individual replicas, fetched
	// live from each node's /v1/stats at snapshot time.
	PerNode []NodeStats `json:"per_node,omitempty"`
}

// NodeStats is one replica's line inside ClusterStats.PerNode.
type NodeStats struct {
	// Shard is the partition index this node serves.
	Shard int `json:"shard"`
	// Base is the first global ID of the shard's range.
	Base int `json:"base"`
	// Addr is the replica's base URL.
	Addr string `json:"addr"`
	// NodeID is the node's self-reported identity (apserve -node-id).
	NodeID string `json:"node_id,omitempty"`
	// Healthy is the router's current admission state for this replica.
	Healthy bool `json:"healthy"`
	// Queries and Batches are the node's own backend counters.
	Queries int64 `json:"queries,omitempty"`
	Batches int64 `json:"batches,omitempty"`
	// Vectors is the node's live dataset size. It can be smaller than the
	// node's local ID space once deletes have happened — range sizing uses
	// the node's reported IDSpace, not this.
	Vectors int `json:"vectors,omitempty"`
	// UptimeNS is the node's self-reported uptime.
	UptimeNS int64 `json:"uptime_ns,omitempty"`
	// ModeledTimeNS is the node's accumulated modeled platform time.
	ModeledTimeNS int64 `json:"modeled_time_ns,omitempty"`
	// Error is set when the stats fetch from this node failed; the counter
	// fields are then zero.
	Error string `json:"error,omitempty"`
}
