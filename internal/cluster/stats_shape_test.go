package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	apknn "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// statsShape fetches GET /v1/stats from h and reduces the answer to sorted
// "key.path type" lines, values ignored: field names and nesting are what
// aptop, serve.Client, the router's per-node fetch and bench/ decode. The
// latency maps are keyed by whichever histograms have samples in this
// process, so their keys collapse to "*".
func statsShape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats answered %d: %s", rec.Code, rec.Body.String())
	}
	var doc interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	var walk func(path string, v interface{})
	walk = func(path string, v interface{}) {
		kind := "null"
		switch v := v.(type) {
		case map[string]interface{}:
			kind = "object"
			for k, child := range v {
				if path == "latency" || path == "latency_1m" {
					k = "*"
				}
				walk(strings.TrimPrefix(path+"."+k, "."), child)
			}
		case []interface{}:
			kind = "array"
			for _, child := range v {
				walk(path+"[]", child)
			}
		case string:
			kind = "string"
		case float64:
			kind = "number"
		case bool:
			kind = "bool"
		}
		if path != "" {
			seen[path+" "+kind] = true
		}
	}
	walk("", doc)
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestStatsShapeGolden pins the /v1/stats JSON shape of a static cpu node, a
// live durable node under SLO admission, and a router with its per-node
// block. To accept an intended change, replace the golden file with the
// shape the failure prints.
func TestStatsShapeGolden(t *testing.T) {
	ds := apknn.RandomDataset(73, 200, 32)
	ctx := context.Background()
	node := func(idx apknn.Index, cfg serve.Config) http.Handler {
		cfg.Dim, cfg.NodeID, cfg.Vectors = ds.Dim(), "golden", ds.Len()
		srv := serve.New(idx, cfg)
		t.Cleanup(func() {
			cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			if err := srv.Close(cctx); err != nil {
				t.Errorf("close: %v", err)
			}
		})
		body := fmt.Sprintf(`{"query":%q,"k":3}`, ds.At(0).String())
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("search answered %d: %s", rec.Code, rec.Body.String())
		}
		return srv.Handler()
	}

	static, err := apknn.Open(ds, apknn.WithBackend(apknn.CPU))
	if err != nil {
		t.Fatal(err)
	}
	live, err := apknn.OpenLive(ds, apknn.WithBackend(apknn.CPU),
		apknn.WithDurability(t.TempDir(), apknn.DurabilityOptions{Fsync: apknn.FsyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	if _, err := live.Insert(ctx, ds.At(1)); err != nil {
		t.Fatal(err)
	}
	tc := bootCluster(t, ds, 2, 1, false, cluster.Config{}, nil)
	if _, err := tc.client.Search(ctx, ds.At(0), 3); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		golden  string
		handler http.Handler
	}{
		{"stats_static.golden", node(static, serve.Config{})},
		{"stats_live.golden", node(live, serve.Config{SLOTargetP99: time.Second})},
		{"stats_router.golden", tc.router.Handler()},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := statsShape(t, c.handler); got != string(want) {
			t.Errorf("%s: the /v1/stats shape changed; got:\n%s", c.golden, got)
		}
	}
}
