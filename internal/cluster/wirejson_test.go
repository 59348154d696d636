package cluster_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	apknn "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// TestNodeWireJSON pins the exact JSON one serving node answers on
// /v1/search, /v1/search_batch and /v1/analytics: neighbors as
// {"id":…,"dist":…}, hot queries as {"key":…,"count":…}, and a node that has
// seen no query answers "top_queries":[].
func TestNodeWireJSON(t *testing.T) {
	ds := apknn.RandomDataset(91, 400, 32)
	tc := bootCluster(t, ds, 2, 1, false, cluster.Config{}, nil)
	checkWireJSON(t, tc.nodes[0][0].srv.Handler(), ds.Slice(0, 200), "[]", 1)
}

// TestRouterWireJSON pins the same three answers through the router: global
// IDs, hot-query counts summed over the shards (each sees every query), and
// "top_queries":null while no shard reports a hot query.
func TestRouterWireJSON(t *testing.T) {
	ds := apknn.RandomDataset(91, 400, 32)
	tc := bootCluster(t, ds, 2, 1, false, cluster.Config{}, nil)
	checkWireJSON(t, tc.router.Handler(), ds, "null", 2)
}

// checkWireJSON drives h, which serves ds, with one search and one batch of
// two queries, reading /v1/analytics before and after. emptyTop is the
// top_queries value h answers before any query; each query is counted
// perQuery times in the merged heat block.
func checkWireJSON(t *testing.T, h http.Handler, ds *apknn.Dataset, emptyTop string, perQuery int) {
	t.Helper()
	const k = 3
	qs := apknn.RandomQueries(92, 2, ds.Dim())
	want := apknn.ExactSearch(ds, qs, k, 1)
	neighbors := func(ns []apknn.Neighbor) string {
		parts := make([]string, len(ns))
		for i, n := range ns {
			parts[i] = fmt.Sprintf(`{"id":%d,"dist":%d}`, n.ID, n.Dist)
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	topQueries := func() string {
		t.Helper()
		rec := do(h, http.MethodGet, "/v1/analytics", nil, nil)
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &fields); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("analytics: status %d, %v: %s", rec.Code, err, rec.Body.String())
		}
		return string(fields["top_queries"])
	}
	post := func(path string, body interface{}, wantBody string) {
		t.Helper()
		rec := do(h, http.MethodPost, path, body, nil)
		if got := rec.Body.String(); rec.Code != http.StatusOK || got != wantBody+"\n" {
			t.Errorf("POST %s answered %d %q, want %q", path, rec.Code, got, wantBody+"\n")
		}
	}

	if got := topQueries(); got != emptyTop {
		t.Errorf("before any query: top_queries %s, want %s", got, emptyTop)
	}
	q0, q1 := qs[0].String(), qs[1].String()
	post("/v1/search", serve.SearchRequest{Query: q0, K: k},
		`{"neighbors":`+neighbors(want[0])+`,"flush_size":1}`)
	post("/v1/search_batch", serve.SearchBatchRequest{Queries: []string{q0, q1}, K: k},
		`{"neighbors":[`+neighbors(want[0])+","+neighbors(want[1])+`]}`)
	wantTop := fmt.Sprintf(`[{"key":%q,"count":%d},{"key":%q,"count":%d}]`, q0, 2*perQuery, q1, perQuery)
	if got := topQueries(); got != wantTop {
		t.Errorf("top_queries %s, want %s", got, wantTop)
	}
}
