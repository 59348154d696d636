package cluster_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	apknn "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
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
