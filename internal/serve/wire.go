package serve

import (
	"repro/internal/apstats"
	"repro/internal/knn"
	"repro/internal/obs"
)

// The JSON wire types of the /v1 serving API, shared by the HTTP handlers
// and the Go Client. Vectors travel as "1011"-style bit strings — the same
// textual form apknn.ParseVector accepts and Vector.String prints — so the
// API is curl-able without a binary encoding step.

// SearchRequest is the body of POST /v1/search: one query destined for the
// dynamic micro-batcher.
type SearchRequest struct {
	// Query is the bit-string query vector; its length must equal the
	// served dataset's dimensionality.
	Query string `json:"query"`
	// K is the number of neighbors wanted (default 10).
	K int `json:"k,omitempty"`
	// TimeoutMS optionally bounds the server-side time budget; expiry
	// answers 504. The client's own context cancellation is honored
	// regardless.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Neighbor is one search hit on the wire.
type Neighbor struct {
	ID   int `json:"id"`
	Dist int `json:"dist"`
}

// SearchResponse answers POST /v1/search.
type SearchResponse struct {
	Neighbors []Neighbor `json:"neighbors"`
	// FlushSize is the realized micro-batch this query was coalesced
	// into — 1 means the query paid a full reconfiguration sweep alone.
	FlushSize int `json:"flush_size"`
}

// SearchBatchRequest is the body of POST /v1/search_batch: a client-formed
// batch served in one backend call, bypassing the micro-batcher.
type SearchBatchRequest struct {
	Queries []string `json:"queries"`
	K       int      `json:"k,omitempty"`
}

// SearchBatchResponse answers POST /v1/search_batch; Neighbors is indexed
// like Queries.
type SearchBatchResponse struct {
	Neighbors [][]Neighbor `json:"neighbors"`
}

// InsertRequest is the body of POST /v1/insert: one vector to add to a
// live (mutable) index.
type InsertRequest struct {
	// Vector is the bit-string vector to insert; its length must equal the
	// served dataset's dimensionality.
	Vector string `json:"vector"`
}

// InsertResponse answers POST /v1/insert.
type InsertResponse struct {
	// ID is the global ID assigned to the inserted vector — stable across
	// compactions, never reused.
	ID int `json:"id"`
}

// DeleteRequest is the body of POST /v1/delete.
type DeleteRequest struct {
	// ID is the global ID to delete (a seed, loaded, or inserted vector).
	ID int `json:"id"`
}

// DeleteResponse answers POST /v1/delete.
type DeleteResponse struct {
	ID int `json:"id"`
	// Deleted confirms the tombstone landed; an unknown or already-deleted
	// ID answers 404 instead.
	Deleted bool `json:"deleted"`
}

// NodeInfo is the serving node's identity block on /v1/stats: which cluster
// shard this process serves, where, and how big its slice of the dataset
// is. The cluster router (internal/cluster) probes it at boot to assign
// global-ID bases and reads it on aggregation so every ClusterStats line is
// attributable to a node.
type NodeInfo struct {
	// ID names the node, e.g. "shard0-a" (apserve -node-id; defaults to the
	// listen address).
	ID string `json:"id"`
	// Addr is the advertised listen address.
	Addr string `json:"addr,omitempty"`
	// UptimeNS is nanoseconds since the serving layer was built.
	UptimeNS int64 `json:"uptime_ns"`
	// Vectors is the served dataset's current size (a live index reports
	// its mutating Len, a static one its boot-time size).
	Vectors int `json:"vectors"`
	// IDSpace is the node's local ID-space size: local IDs span
	// [0, IDSpace). For a static index this equals Vectors; a live index's
	// ID space only grows (deletes shrink Vectors but IDs are never
	// reused), so the router's global-ID base assignment must use this,
	// not Vectors.
	IDSpace int `json:"id_space"`
	// Dim is the served dataset's dimensionality.
	Dim int `json:"dim,omitempty"`
}

// StatsResponse answers GET /v1/stats.
type StatsResponse struct {
	// Backend is the served Index's own counters.
	Backend apstats.Stats `json:"backend"`
	// Serving is the micro-batcher and admission-control snapshot.
	Serving apstats.ServingStats `json:"serving"`
	// ModeledTimeNS is the backend's accumulated modeled wall-clock.
	ModeledTimeNS int64 `json:"modeled_time_ns"`
	// Node identifies this server within a cluster; present when the server
	// was configured with a NodeID.
	Node *NodeInfo `json:"node,omitempty"`
	// Latency maps stable metric names (the same ones GET /metrics exports)
	// to quantile summaries; metrics with no samples yet are omitted.
	Latency map[string]obs.Summary `json:"latency,omitempty"`
	// LatencyWindow is the same map computed over roughly the last minute
	// (a 6×10s rotating window) instead of since boot — what a dashboard
	// without a scraping Prometheus reads for "p99 right now". Metrics
	// with no samples inside the window are omitted.
	LatencyWindow map[string]obs.Summary `json:"latency_1m,omitempty"`
}

// HotQuery is one entry of the /v1/analytics heat block: a query key (the
// canonical bit-string form), its estimated frequency, and the
// space-saving error bound (the key may have occurred up to Err times
// while untracked; 0 means the count is exact).
type HotQuery struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// ShardLoad is the per-node load block of /v1/analytics — the counters a
// shard-split advisor compares across shards.
type ShardLoad struct {
	// Queries and Batches are the backend's own serving counters.
	Queries int64 `json:"queries"`
	Batches int64 `json:"batches"`
	// CandidatesScanned is the total query/candidate distance evaluations.
	CandidatesScanned int64 `json:"candidates_scanned"`
	// BytesScanned is CandidatesScanned × the packed vector size — the
	// scan bandwidth this node has paid. Zero when the server does not
	// know its dimensionality.
	BytesScanned int64 `json:"bytes_scanned"`
	// DeltaSize is the live index's current delta-segment length (0 for a
	// static index) — pending churn not yet compacted into the base.
	DeltaSize int `json:"delta_size"`
	// Vectors is the node's current dataset size.
	Vectors int `json:"vectors"`
}

// AnalyticsResponse answers GET /v1/analytics on one apserve node.
type AnalyticsResponse struct {
	// Node identifies this server within a cluster, when configured.
	Node *NodeInfo `json:"node,omitempty"`
	// QueriesObserved is the number of queries the heat tracker has seen
	// (search and batch members both count).
	QueriesObserved uint64 `json:"queries_observed"`
	// TopQueries is the hottest queries, count-descending.
	TopQueries []HotQuery `json:"top_queries"`
	// Load is this node's load-counter block.
	Load ShardLoad `json:"load"`
}

// DebugTracesResponse answers GET /v1/debug/traces: the node's flight
// recorder contents. Query parameters select the view — ?class= one of
// recent|slow|error|shed|hedge (default recent), ?n= caps the count,
// ?trace_id= returns every retained record of one trace instead (the form
// the router's stitcher fetches from shards).
type DebugTracesResponse struct {
	// Node is the answering node's identity.
	Node string `json:"node,omitempty"`
	// Depth is the per-class ring retention.
	Depth int `json:"depth"`
	// Recorded counts every trace completed into the recorder since boot.
	Recorded int64 `json:"recorded"`
	// Classes maps each class to how many records it currently retains.
	Classes map[string]int `json:"classes"`
	// Traces is the selected records, newest first. On the router, each
	// record's tree has shard-side trees stitched under their scatter legs.
	Traces []*obs.TraceRecord `json:"traces"`
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status  string `json:"status"`
	Backend string `json:"backend"`
	Boards  int    `json:"boards"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// toWire converts engine neighbors to their wire form.
func toWire(ns []knn.Neighbor) []Neighbor {
	out := make([]Neighbor, len(ns))
	for i, n := range ns {
		out[i] = Neighbor{ID: n.ID, Dist: n.Dist}
	}
	return out
}

// Neighbors converts wire neighbors back to engine form, for callers that
// compare server results against a local index or exact scan.
func Neighbors(ws []Neighbor) []knn.Neighbor {
	out := make([]knn.Neighbor, len(ws))
	for i, w := range ws {
		out[i] = knn.Neighbor{ID: w.ID, Dist: w.Dist}
	}
	return out
}
