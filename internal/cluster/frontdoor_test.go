package cluster_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	apknn "repro"
	"repro/internal/cluster"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// do drives h in process. ServeHTTP returns only after the front door's
// deferred accounting ran, so the recorder and the histograms can be read
// right after it without polling.
func do(h http.Handler, method, target string, body interface{}, header http.Header) *httptest.ResponseRecorder {
	var buf bytes.Buffer
	if raw, ok := body.([]byte); ok {
		buf.Write(raw)
	} else if body != nil {
		_ = json.NewEncoder(&buf).Encode(body) // a bytes.Buffer write cannot fail
	}
	req := httptest.NewRequest(method, target, &buf)
	for k := range header {
		req.Header.Set(k, header.Get(k))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// debugTraces reads h's own flight recorder, unstitched.
func debugTraces(t *testing.T, h http.Handler, query string) serve.DebugTracesResponse {
	t.Helper()
	rec := do(h, http.MethodGet, "/v1/debug/traces?stitch=0&"+query, nil, nil)
	var dt serve.DebugTracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dt); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("debug traces %q: status %d, %v: %s", query, rec.Code, err, rec.Body.String())
	}
	return dt
}

// histCount is how many samples the named end-to-end histogram holds.
func histCount(name string) int64 {
	return obs.Default.Summaries()[name].Count
}

// TestFrontDoor runs all eight POST endpoints of both tiers through the one
// traced front door and asserts the fixed order's visible effects: a hostile
// X-Request-ID comes back sanitized, an X-Trace-Context is adopted (trace ID
// and parent span), each request leaves exactly one flight-recorder record
// with the endpoint's root name and status, and the endpoint's end-to-end
// histogram gains exactly one sample. A non-POST is refused before the
// clock starts: no record, no sample.
func TestFrontDoor(t *testing.T) {
	ds := apknn.RandomDataset(81, 400, 32)
	tc := bootCluster(t, ds, 2, 1, true, cluster.Config{}, nil)
	bits := apknn.RandomQueries(82, 1, 32)[0].String()

	tiers := []struct {
		tier       string
		h          http.Handler
		searchHist string
		batchHist  string
		deleteID   int // distinct per tier: the node below is the router's shard 1
	}{
		{"serve", tc.nodes[1][0].srv.Handler(), "apknn_serve_search_seconds", "apknn_serve_search_batch_seconds", 5},
		{"router", tc.router.Handler(), "apknn_cluster_search_seconds", "apknn_cluster_search_batch_seconds", 7},
	}
	for _, tier := range tiers {
		endpoints := []struct {
			name string
			body interface{}
			hist string // "" for endpoints without an end-to-end histogram
		}{
			{"search", serve.SearchRequest{Query: bits, K: 3}, tier.searchHist},
			{"search_batch", serve.SearchBatchRequest{Queries: []string{bits, bits}, K: 3}, tier.batchHist},
			{"insert", serve.InsertRequest{Vector: bits}, ""},
			{"delete", serve.DeleteRequest{ID: tier.deleteID}, ""},
		}
		for _, ep := range endpoints {
			t.Run(tier.tier+"/"+ep.name, func(t *testing.T) {
				path, root := "/v1/"+ep.name, tier.tier+"."+ep.name
				traceID := "fd-" + tier.tier + "-" + ep.name
				hostile := traceID + "-req\" level=ERROR\n$(reboot)"
				wantID := obs.SanitizeRequestID(hostile)

				recorded, samples := debugTraces(t, tier.h, "n=1").Recorded, histCount(ep.hist)
				if rec := do(tier.h, http.MethodGet, path, nil, nil); rec.Code != http.StatusMethodNotAllowed {
					t.Fatalf("GET %s answered %d, want 405", path, rec.Code)
				}
				if got := debugTraces(t, tier.h, "n=1").Recorded; got != recorded || histCount(ep.hist) != samples {
					t.Errorf("a 405 was traced: recorded %d -> %d, %d -> %d samples",
						recorded, got, samples, histCount(ep.hist))
				}

				header := http.Header{}
				header.Set(obs.RequestIDHeader, hostile)
				header.Set(obs.TraceContextHeader, traceID+"/abcd1234")
				rec := do(tier.h, http.MethodPost, path, ep.body, header)
				if rec.Code != http.StatusOK {
					t.Fatalf("POST %s answered %d: %s", path, rec.Code, rec.Body.String())
				}
				if got := rec.Header().Get(obs.RequestIDHeader); got != wantID || got == hostile {
					t.Errorf("echoed request ID %q, want the sanitized %q", got, wantID)
				}

				dt := debugTraces(t, tier.h, "trace_id="+traceID)
				if len(dt.Traces) != 1 || dt.Recorded != recorded+1 {
					t.Fatalf("%d records for trace %s, recorder went %d -> %d; want exactly one more",
						len(dt.Traces), traceID, recorded, dt.Recorded)
				}
				tr := dt.Traces[0]
				if tr.Root.Name != root || tr.Status != http.StatusOK {
					t.Errorf("record root %q status %d, want %q 200", tr.Root.Name, tr.Status, root)
				}
				if got := tr.Root.Attr("parent_span_id"); got != "abcd1234" {
					t.Errorf("parent_span_id = %q: the trace context was not adopted", got)
				}
				if got := tr.Root.Attr("request_id"); got != wantID {
					t.Errorf("root request_id = %q, want %q", got, wantID)
				}
				if ep.hist != "" {
					if got := histCount(ep.hist); got != samples+1 {
						t.Errorf("%s went %d -> %d samples, want exactly one more", ep.hist, samples, got)
					}
				}
			})
		}
	}
}

// TestRouterBadBatchBodyIsTraced is the regression test for the router's
// batch handler decoding the body before it started the clock and the
// trace: a body that does not parse must still leave one router.search_batch
// record with status 400 and one end-to-end histogram sample.
func TestRouterBadBatchBodyIsTraced(t *testing.T) {
	ds := apknn.RandomDataset(91, 200, 32)
	tc := bootCluster(t, ds, 2, 1, false, cluster.Config{}, nil)
	h := tc.router.Handler()
	const hist = "apknn_cluster_search_batch_seconds"

	samples := histCount(hist)
	if rec := do(h, http.MethodPost, "/v1/search_batch", []byte(`{"queries":[`), nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON answered %d, want 400: %s", rec.Code, rec.Body.String())
	}
	var hits int
	for _, tr := range debugTraces(t, h, "class="+obs.ClassRecent).Traces {
		if tr.Root.Name == "router.search_batch" && tr.Status == http.StatusBadRequest {
			hits++
		}
	}
	if hits != 1 {
		t.Errorf("%d router.search_batch records with status 400 in the recent ring, want 1", hits)
	}
	if got := histCount(hist); got != samples+1 {
		t.Errorf("%s went %d -> %d samples, want exactly one more", hist, samples, got)
	}
}

// packedRequest hand-encodes the request layout documented at the top of
// serve/wire.go, so the table below checks the document and not the encoder
// against itself.
func packedRequest(k int64, timeoutMS int32, queries ...apknn.Vector) []byte {
	dim := 0
	if len(queries) > 0 {
		dim = queries[0].Dim()
	}
	b := []byte{'A', 'P', 'Q', 1}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(queries)))
	b = binary.LittleEndian.AppendUint32(b, uint32(dim))
	b = binary.LittleEndian.AppendUint32(b, uint32(timeoutMS))
	b = binary.LittleEndian.AppendUint64(b, uint64(k))
	for _, q := range queries {
		for _, w := range q.Words() {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return b
}

// unpackReply hand-decodes the documented reply layout.
func unpackReply(t *testing.T, b []byte) (flushSize int, results [][]knn.Neighbor) {
	t.Helper()
	if len(b) < 12 || string(b[:3]) != "APR" || b[3] != 1 {
		t.Fatalf("not a version-1 packed reply: % x", b)
	}
	flushSize = int(binary.LittleEndian.Uint32(b[4:]))
	results = make([][]knn.Neighbor, binary.LittleEndian.Uint32(b[8:]))
	b = b[12:]
	for i := range results {
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		results[i] = make([]knn.Neighbor, n)
		for j := range results[i] {
			results[i][j] = knn.Neighbor{
				ID:   int(binary.LittleEndian.Uint64(b)),
				Dist: int(binary.LittleEndian.Uint32(b[8:])),
			}
			b = b[12:]
		}
	}
	if len(b) != 0 {
		t.Fatalf("%d bytes after the last result set", len(b))
	}
	return flushSize, results
}

// codecCase is one way to ask one search endpoint: the body for these
// queries, the Content-Type it goes under, and how to read a 200.
type codecCase struct {
	name        string
	contentType string
	body        func(batch bool, k int, timeoutMS int, queries []apknn.Vector) []byte
	decode      func(t *testing.T, batch bool, body []byte) (flushSize int, results [][]knn.Neighbor)
}

var codecs = []codecCase{
	{
		name: "json", contentType: "application/json",
		body: func(batch bool, k, timeoutMS int, queries []apknn.Vector) []byte {
			bits := make([]string, len(queries))
			for i, q := range queries {
				bits[i] = q.String()
			}
			var v interface{} = serve.SearchBatchRequest{Queries: bits, K: k}
			if !batch {
				v = serve.SearchRequest{Query: bits[0], K: k, TimeoutMS: timeoutMS}
			}
			raw, _ := json.Marshal(v) // plain structs of strings and ints
			return raw
		},
		decode: func(t *testing.T, batch bool, body []byte) (int, [][]knn.Neighbor) {
			t.Helper()
			if batch {
				var resp serve.SearchBatchResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("JSON batch reply: %v: %s", err, body)
				}
				out := make([][]knn.Neighbor, len(resp.Neighbors))
				for i, ns := range resp.Neighbors {
					out[i] = serve.Neighbors(ns)
				}
				return 0, out
			}
			var resp serve.SearchResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("JSON reply: %v: %s", err, body)
			}
			return resp.FlushSize, [][]knn.Neighbor{serve.Neighbors(resp.Neighbors)}
		},
	},
	{
		name: "packed", contentType: serve.PackedMediaType,
		body: func(batch bool, k, timeoutMS int, queries []apknn.Vector) []byte {
			return packedRequest(int64(k), int32(timeoutMS), queries...)
		},
		decode: func(t *testing.T, batch bool, body []byte) (int, [][]knn.Neighbor) {
			t.Helper()
			return unpackReply(t, body)
		},
	},
}

// post sends one search body under its codec's Content-Type.
func (c codecCase) post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	header := http.Header{}
	header.Set("Content-Type", c.contentType)
	return do(h, http.MethodPost, path, body, header)
}

// errorText reads the JSON error envelope every failure answers with,
// whichever codec asked.
func errorText(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var env struct {
		Error string `json:"error"`
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("status %d answered as %q, want the JSON envelope", rec.Code, ct)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" {
		t.Fatalf("status %d with no error envelope: %q", rec.Code, rec.Body.Bytes())
	}
	return env.Error
}

// TestFrontDoorCodecs drives both search endpoints of both tiers in both
// codecs. Every 200 comes back in the codec the request used and equals
// knn.Linear under (Dist, ID), ties included; every bad body is refused
// with one status and one text whichever codec carried it; and whatever the
// caller spoke to the router, the shards were asked packed.
func TestFrontDoorCodecs(t *testing.T) {
	const n, nq, k = 600, 5, 9
	for _, dim := range []int{32, 64, 192} {
		for _, data := range []struct {
			name string
			ds   *apknn.Dataset
		}{
			{"uniform", apknn.RandomDataset(uint64(300+dim), n, dim)},
			{"tieheavy", workload.TieHeavy(stats.NewRNG(uint64(400+dim)), n, dim, 64)},
		} {
			t.Run(fmt.Sprintf("dim%d/%s", dim, data.name), func(t *testing.T) {
				// The hook sees what the router sends its shards (the node tier
				// below is driven in process, past it).
				var packedLegs, otherLegs atomic.Int64
				tc := bootCluster(t, data.ds, 2, 1, false, cluster.Config{}, func(_, _ int, h http.Handler) http.Handler {
					return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						if strings.HasPrefix(r.URL.Path, "/v1/search") {
							if r.Header.Get("Content-Type") == serve.PackedMediaType {
								packedLegs.Add(1)
							} else {
								otherLegs.Add(1)
							}
						}
						h.ServeHTTP(w, r)
					})
				})
				// A member of the set is its own nearest neighbor at distance
				// zero, tied with every copy of it on tie-heavy data.
				queries := append(apknn.RandomQueries(uint64(500+dim), nq-1, dim), data.ds.At(n/2))
				part := data.ds.Slice(tc.bases[1], n)
				tiers := []struct {
					name string
					h    http.Handler
					ds   *apknn.Dataset // what this tier answers over, in its own IDs
				}{
					{"node", tc.nodes[1][0].srv.Handler(), part},
					{"router", tc.router.Handler(), data.ds},
				}
				for _, tier := range tiers {
					for _, codec := range codecs {
						for _, batch := range []bool{false, true} {
							path, asked := "/v1/search", queries[:1]
							if batch {
								path, asked = "/v1/search_batch", queries
							}
							rec := codec.post(tier.h, path, codec.body(batch, k, 0, asked))
							if rec.Code != http.StatusOK {
								t.Fatalf("%s %s %s: status %d: %s", tier.name, codec.name, path, rec.Code, rec.Body.String())
							}
							wantType := codec.contentType
							if got := rec.Header().Get("Content-Type"); got != wantType {
								t.Errorf("%s %s %s answered as %q, want %q", tier.name, codec.name, path, got, wantType)
							}
							flush, results := codec.decode(t, batch, rec.Body.Bytes())
							if !batch && flush < 1 {
								t.Errorf("%s %s %s: flush size %d", tier.name, codec.name, path, flush)
							}
							if len(results) != len(asked) {
								t.Fatalf("%s %s %s: %d result sets for %d queries", tier.name, codec.name, path, len(results), len(asked))
							}
							for qi, q := range asked {
								want := knn.Linear(tier.ds, q, k)
								if !reflect.DeepEqual(results[qi], want) {
									t.Errorf("%s %s %s query %d:\n got %v\nwant %v", tier.name, codec.name, path, qi, results[qi], want)
								}
							}
						}
					}
				}
				// Two codecs × two endpoints through the router, two shards each.
				if packed, other := packedLegs.Load(), otherLegs.Load(); packed != 8 || other != 0 {
					t.Errorf("the router's legs reached the shards %d times packed and %d times not, want 8 and 0",
						packed, other)
				}
			})
		}
	}
}

// TestFrontDoorCodecErrors is the other half of the codec table: a body
// that must be refused is refused with the same status and the same text in
// both codecs, on both tiers, and the refusal is always the JSON envelope.
func TestFrontDoorCodecErrors(t *testing.T) {
	ds := apknn.RandomDataset(95, 300, 32)
	tc := bootCluster(t, ds, 2, 1, true, cluster.Config{}, nil) // live: /v1/insert is past its 501
	good := apknn.RandomQueries(96, 2, 32)
	short := apknn.RandomQueries(97, 2, 16)
	tiers := []struct {
		name, holder string
		h            http.Handler
	}{
		{"node", "dataset has", tc.nodes[0][0].srv.Handler()},
		{"router", "cluster serves", tc.router.Handler()},
	}
	rows := []struct {
		name    string
		batch   bool
		k       int
		queries []apknn.Vector
		want    string // %s is the tier's holder
	}{
		{"dim mismatch", false, 3, short[:1], "query has 16 bits, %s 32: dimension mismatch"},
		{"dim mismatch", true, 3, short, "query 0 has 16 bits, %s 32: dimension mismatch"},
		{"negative k", false, -2, good[:1], "k must be positive"},
		{"negative k", true, -2, good, "k must be positive"},
		{"empty batch", true, 3, nil, "empty query batch"},
	}
	for _, tier := range tiers {
		for _, row := range rows {
			path := "/v1/search"
			if row.batch {
				path = "/v1/search_batch"
			}
			want := row.want
			if strings.Contains(want, "%s") {
				want = fmt.Sprintf(want, tier.holder)
			}
			for _, codec := range codecs {
				rec := codec.post(tier.h, path, codec.body(row.batch, row.k, 0, row.queries))
				if got := errorText(t, rec); rec.Code != http.StatusBadRequest || got != want {
					t.Errorf("%s %s %s, %s: status %d %q, want 400 %q",
						tier.name, codec.name, path, row.name, rec.Code, got, want)
				}
			}
		}
		for _, path := range []string{"/v1/search", "/v1/search_batch"} {
			for _, codec := range codecs {
				header := http.Header{}
				header.Set("Content-Type", codec.contentType)
				rec := do(tier.h, http.MethodGet, path, nil, header)
				if got := errorText(t, rec); rec.Code != http.StatusMethodNotAllowed || got != "POST only" {
					t.Errorf("%s %s GET %s: status %d %q, want 405 \"POST only\"", tier.name, codec.name, path, rec.Code, got)
				}
			}
		}
		// Framing the JSON form has no counterpart for: each is a 400 that
		// names the packed body, decided before anything is allocated from
		// what the header claims.
		whole := packedRequest(3, 0, good...)
		hugeCount := append([]byte(nil), whole...)
		binary.LittleEndian.PutUint32(hugeCount[4:], 1<<31)
		futureVersion := append([]byte(nil), whole...)
		futureVersion[3] = 2
		twoOnSearch := whole
		for name, body := range map[string][]byte{
			"short header":        whole[:10],
			"cut off":             whole[:len(whole)-3],
			"trailing bytes":      append(append([]byte(nil), whole...), 0),
			"count past the body": hugeCount,
			"unknown version":     futureVersion,
		} {
			rec := codecs[1].post(tier.h, "/v1/search_batch", body)
			if got := errorText(t, rec); rec.Code != http.StatusBadRequest || !strings.HasPrefix(got, "bad packed body: ") {
				t.Errorf("%s packed %s: status %d %q, want a 400 naming the packed body", tier.name, name, rec.Code, got)
			}
		}
		rec := codecs[1].post(tier.h, "/v1/search", twoOnSearch)
		if got := errorText(t, rec); rec.Code != http.StatusBadRequest || got != "bad packed body: /v1/search takes one query, got 2" {
			t.Errorf("%s: two packed queries on /v1/search: status %d %q", tier.name, rec.Code, got)
		}
		rec = codecs[1].post(tier.h, "/v1/insert", whole)
		if errorText(t, rec); rec.Code != http.StatusUnsupportedMediaType {
			t.Errorf("%s: a packed body on /v1/insert answered %d, want 415", tier.name, rec.Code)
		}
	}
}

// TestFrontDoorBodyCap: a body past serve.MaxBodyBytes is a 413 in either
// codec on either tier, not a read to the end.
func TestFrontDoorBodyCap(t *testing.T) {
	ds := apknn.RandomDataset(98, 200, 32)
	tc := bootCluster(t, ds, 1, 1, false, cluster.Config{}, nil)
	// Valid framing on both, so only the length is wrong: a JSON string that
	// runs on, and a packed batch whose header owns up to every byte.
	long := bytes.Repeat([]byte{'0'}, serve.MaxBodyBytes+1)
	jsonBody := append(append([]byte(`{"queries":["`), long...), `"]}`...)
	packedBody := packedRequest(3, 0, apknn.RandomQueries(99, 1, 32)[0]) // one 8-byte query
	binary.LittleEndian.PutUint32(packedBody[4:], uint32(serve.MaxBodyBytes/8+1))
	packedBody = append(packedBody, make([]byte, serve.MaxBodyBytes)...)
	for name, h := range map[string]http.Handler{"node": tc.nodes[0][0].srv.Handler(), "router": tc.router.Handler()} {
		for i, body := range [][]byte{jsonBody, packedBody} {
			rec := codecs[i].post(h, "/v1/search_batch", body)
			want := fmt.Sprintf("request body exceeds %d bytes", serve.MaxBodyBytes)
			if got := errorText(t, rec); rec.Code != http.StatusRequestEntityTooLarge || got != want {
				t.Errorf("%s %s: a %d-byte body answered %d %q, want 413 %q",
					name, codecs[i].name, len(body), rec.Code, got, want)
			}
		}
	}
}

// TestFrontDoorCodecTimeout: timeout_ms bounds a search in the packed form
// exactly as in the JSON one — same 504, same text — on a node whose backend
// never answers and on a router whose shards never do.
func TestFrontDoorCodecTimeout(t *testing.T) {
	ds := apknn.RandomDataset(93, 200, 32)
	release := make(chan struct{})
	defer close(release)
	tc := bootCluster(t, ds, 2, 1, false, cluster.Config{}, func(_, _ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/search" {
				select {
				case <-release:
				case <-r.Context().Done():
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	q := apknn.RandomQueries(94, 1, 32)
	for _, codec := range codecs {
		start := time.Now()
		rec := codec.post(tc.router.Handler(), "/v1/search", codec.body(false, 3, 30, q))
		if got := errorText(t, rec); rec.Code != http.StatusGatewayTimeout || got != "context deadline exceeded" {
			t.Errorf("router %s: status %d %q, want 504 \"context deadline exceeded\"", codec.name, rec.Code, got)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("router %s: a 30 ms budget took %v", codec.name, elapsed)
		}
	}
}
