package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apstats"
	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/obs"
)

// The wire types of the /v1 serving API, shared by the HTTP handlers and the
// Go Client. There are two codecs for the two search endpoints and one for
// everything else.
//
// JSON is the form for people: vectors travel as "1011"-style bit strings —
// the same textual form apknn.ParseVector accepts and Vector.String prints —
// so the API is curl-able without a binary encoding step. Every endpoint
// speaks it, and any Content-Type other than the packed one below (curl -d
// sends application/x-www-form-urlencoded) is read as JSON.
//
// The packed form is what this repository's own binaries send each other: a
// search crosses every hop as the 64-bit words the scan kernel consumes,
// never as a bit string. A request whose Content-Type is PackedMediaType
// carries, little-endian:
//
//	offset  size  field
//	0       3     "APQ"
//	3       1     version (1)
//	4       4     count       uint32  queries in the body (1 on /v1/search)
//	8       4     dim         uint32  bits per query
//	12      4     timeout_ms  int32   as the JSON field; ≤ 0 asks for none
//	16      8     k           int64   as the JSON field; 0 takes the default
//	24      …     count × ceil(dim/64) uint64 words, query by query; bit i of
//	              a query is bit i%64 of its word i/64, bits past dim zero
//
// and is answered, with the same Content-Type, by
//
//	0       3     "APR"
//	3       1     version (1)
//	4       4     flush_size  uint32  as the JSON field; 0 on /v1/search_batch
//	8       4     count       uint32  result sets, one per query, in order
//	12      …     per result set: n uint32, then n × (id uint64, dist uint32)
//
// A body whose length is not exactly what its header declares, or whose
// version is unknown, is a 400; nothing is allocated from a declared count
// before it has been checked against the bytes received. Both codecs reduce
// to the one Query value and pass the one validation (FrontDoor.Decode), the
// reply comes back in the codec the request used, and every error is the
// JSON envelope with the same status and text whichever codec asked.

// PackedMediaType is the Content-Type of a packed search request and of the
// reply to one.
const PackedMediaType = "application/vnd.apknn.packed"

// MaxBodyBytes caps the body of every POST endpoint, in either codec; a
// longer one is answered 413. 8 MiB is a JSON batch of 8192 queries of 1024
// bits, or eight times that packed.
const MaxBodyBytes = 8 << 20

const (
	packedVersion       = 1
	packedRequestMagic  = "APQ"
	packedReplyMagic    = "APR"
	packedRequestHeader = 24
	packedReplyHeader   = 12
	packedNeighborBytes = 12
)

// isPacked reports whether a Content-Type header names the packed codec,
// parameters ignored.
func isPacked(contentType string) bool {
	rest, ok := strings.CutPrefix(contentType, PackedMediaType)
	return ok && (rest == "" || rest[0] == ';' || rest[0] == ' ')
}

// appendPackedRequest appends the packed form of a search request to dst.
// Every query must have the first one's dimensionality.
func appendPackedRequest(dst []byte, k int, timeout time.Duration, queries []bitvec.Vector) ([]byte, error) {
	dim := 0
	if len(queries) > 0 {
		dim = queries[0].Dim()
	}
	dst = append(dst, packedRequestMagic...)
	dst = append(dst, packedVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(queries)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	ms := timeout / time.Millisecond
	if ms > math.MaxInt32 {
		ms = math.MaxInt32
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(ms)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(k))
	for i, q := range queries {
		if q.Dim() != dim {
			return dst, fmt.Errorf("serve: query %d has %d bits, query 0 has %d: one packed body carries one dimensionality",
				i, q.Dim(), dim)
		}
		for _, w := range q.Words() {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	}
	return dst, nil
}

// parsePackedRequest reads a packed search request. The vectors it returns
// own their words: b may be reused as soon as it returns.
func parsePackedRequest(b []byte) (k int, timeout time.Duration, vectors []bitvec.Vector, err error) {
	if len(b) < packedRequestHeader {
		return 0, 0, nil, fmt.Errorf("%d bytes is shorter than the %d-byte header", len(b), packedRequestHeader)
	}
	if string(b[:3]) != packedRequestMagic {
		return 0, 0, nil, errors.New("not a packed search request")
	}
	if b[3] != packedVersion {
		return 0, 0, nil, fmt.Errorf("unknown version %d", b[3])
	}
	count := uint64(binary.LittleEndian.Uint32(b[4:]))
	dim := uint64(binary.LittleEndian.Uint32(b[8:]))
	timeout = time.Duration(int32(binary.LittleEndian.Uint32(b[12:]))) * time.Millisecond
	k = int(int64(binary.LittleEndian.Uint64(b[16:])))
	words := (dim + 63) / 64
	payload := b[packedRequestHeader:]
	// count < 2^32 and words < 2^26, so the product cannot wrap.
	if want := count * words * 8; want != uint64(len(payload)) {
		return 0, 0, nil, fmt.Errorf("header declares %d queries of %d bits (%d bytes), body carries %d",
			count, dim, want, len(payload))
	}
	if count > 0 && dim == 0 {
		return 0, 0, nil, errors.New("queries of zero bits")
	}
	// count ≤ len(payload)/8 from here on: the allocations below are bounded
	// by the bytes received, not by what the header says.
	vectors = make([]bitvec.Vector, count)
	var tailMask uint64
	if tail := dim & 63; tail != 0 {
		tailMask = ^uint64(0) << tail
	}
	for i := range vectors {
		v := bitvec.New(int(dim))
		ws := v.Words()
		for j := range ws {
			ws[j] = binary.LittleEndian.Uint64(payload)
			payload = payload[8:]
		}
		if ws[len(ws)-1]&tailMask != 0 {
			return 0, 0, nil, fmt.Errorf("query %d has bits set past its %d dimensions", i, dim)
		}
		vectors[i] = v
	}
	return k, timeout, vectors, nil
}

// appendPackedReply appends the packed form of a search answer to dst.
func appendPackedReply(dst []byte, flushSize int, results [][]knn.Neighbor) []byte {
	dst = append(dst, packedReplyMagic...)
	dst = append(dst, packedVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(flushSize))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(results)))
	for _, ns := range results {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ns)))
		for _, n := range ns {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(n.ID))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(n.Dist))
		}
	}
	return dst
}

// parsePackedReply reads a packed search answer into result sets of either
// neighbor type — Search hands out wire neighbors, SearchBatch engine ones.
// All sets share one backing array, allocated once every declared length
// has been checked against the bytes received.
func parsePackedReply[N Neighbor | knn.Neighbor](b []byte) (flushSize int, results [][]N, err error) {
	if len(b) < packedReplyHeader {
		return 0, nil, fmt.Errorf("%d bytes is shorter than the %d-byte header", len(b), packedReplyHeader)
	}
	if string(b[:3]) != packedReplyMagic {
		return 0, nil, errors.New("not a packed search reply")
	}
	if b[3] != packedVersion {
		return 0, nil, fmt.Errorf("unknown version %d", b[3])
	}
	flushSize = int(binary.LittleEndian.Uint32(b[4:]))
	count := uint64(binary.LittleEndian.Uint32(b[8:]))
	payload := b[packedReplyHeader:]
	if count*4 > uint64(len(payload)) {
		return 0, nil, fmt.Errorf("header declares %d result sets, body carries %d bytes", count, len(payload))
	}
	total, rest := uint64(0), payload
	for i := uint64(0); i < count; i++ {
		if len(rest) < 4 {
			return 0, nil, fmt.Errorf("result set %d is cut off", i)
		}
		n := uint64(binary.LittleEndian.Uint32(rest))
		if n*packedNeighborBytes > uint64(len(rest)-4) {
			return 0, nil, fmt.Errorf("result set %d declares %d neighbors, %d bytes remain", i, n, len(rest)-4)
		}
		rest = rest[4+n*packedNeighborBytes:]
		total += n
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%d bytes after the last result set", len(rest))
	}
	flat := make([]N, total)
	results = make([][]N, count)
	for i := range results {
		n := int(binary.LittleEndian.Uint32(payload))
		payload = payload[4:]
		results[i], flat = flat[:n:n], flat[n:]
		for j := range results[i] {
			id := binary.LittleEndian.Uint64(payload)
			if id > math.MaxInt {
				return 0, nil, fmt.Errorf("result set %d: neighbor ID %d overflows int", i, id)
			}
			results[i][j] = N(knn.Neighbor{ID: int(id), Dist: int(binary.LittleEndian.Uint32(payload[8:]))})
			payload = payload[packedNeighborBytes:]
		}
	}
	return flushSize, results, nil
}

// wirePool holds the codec's buffers: a packed request body the server is
// reading, a packed reply it is writing or the client is reading. Whatever
// is decoded from one is copied out before the buffer goes back.
var wirePool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// maxPooledBuf keeps one outsized body from pinning its buffer in the pool.
const maxPooledBuf = 1 << 20

func getBuf() *bytes.Buffer { return wirePool.Get().(*bytes.Buffer) }

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() > maxPooledBuf {
		return
	}
	buf.Reset()
	wirePool.Put(buf)
}

// writePacked writes one packed reply: pooled buffer, one Write, explicit
// length so the answer is not chunked.
func writePacked(w http.ResponseWriter, flushSize int, results [][]knn.Neighbor) {
	buf := getBuf()
	defer putBuf(buf)
	buf.Write(appendPackedReply(buf.AvailableBuffer(), flushSize, results))
	w.Header().Set("Content-Type", PackedMediaType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes()) // a client that hung up has nobody to report to
}

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
