package cluster_test

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	apknn "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// metricCatalogue scrapes GET /metrics from h and reduces the exposition to
// sorted "name type help" lines — the part of a series a dashboard or alert
// rule depends on. The <name>_1m summary families are left out: they appear
// only while a histogram has samples inside its minute window, so their
// presence follows the traffic other tests drove, and their names and help
// derive mechanically from the histogram families that are listed.
func metricCatalogue(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics answered %d: %s", rec.Code, rec.Body.String())
	}
	help := make(map[string]string)
	typ := make(map[string]string)
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.SplitN(sc.Text(), " ", 4)
		if len(f) < 4 || f[0] != "#" {
			continue
		}
		switch f[1] {
		case "HELP":
			help[f[2]] = f[3]
		case "TYPE":
			typ[f[2]] = f[3]
		}
	}
	var lines []string
	for name, ty := range typ {
		if ty == "summary" && strings.HasSuffix(name, "_1m") {
			continue
		}
		lines = append(lines, name+" "+ty+" "+help[name])
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricCatalogueGolden pins the names, types and help strings of every
// series both tiers export, so a refactor cannot rename or drop one
// silently. The serve node is live and durable and runs with SLO admission
// and anomaly capture on, which lists every conditional series too. To
// accept an intended change, replace the golden file with the catalogue the
// failure prints.
func TestMetricCatalogueGolden(t *testing.T) {
	ds := apknn.RandomDataset(71, 200, 32)
	idx, err := apknn.OpenLive(ds, apknn.WithBackend(apknn.CPU),
		apknn.WithDurability(t.TempDir(), apknn.DurabilityOptions{Fsync: apknn.FsyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	srv := serve.New(idx, serve.Config{
		Dim:           ds.Dim(),
		NodeID:        "golden",
		SLOTargetP99:  time.Second,
		AnomalyTarget: time.Hour,
		DebugDir:      t.TempDir(),
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	tc := bootCluster(t, ds, 2, 1, false, cluster.Config{}, nil)

	for _, c := range []struct {
		golden  string
		handler http.Handler
	}{
		{"metrics_serve.golden", srv.Handler()},
		{"metrics_router.golden", tc.router.Handler()},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := metricCatalogue(t, c.handler); got != string(want) {
			t.Errorf("%s: the metric catalogue changed; got:\n%s", c.golden, got)
		}
	}
}

// scrape reads GET /metrics from h into a series → value map; a labeled
// sample is keyed with its label set, as printed.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || name == "#" {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", sc.Text(), err)
		}
		out[name] = v
	}
	return out
}

// TestStatsAndMetricsAgree drives requests through each tier's handler and
// requires every counter they moved to read the same on /v1/stats and on
// /metrics — both surfaces are filled from one object, so neither can drift.
func TestStatsAndMetricsAgree(t *testing.T) {
	ds := apknn.RandomDataset(79, 200, 32)
	ctx := context.Background()
	idx, err := apknn.OpenLive(ds, apknn.WithBackend(apknn.Fast),
		apknn.WithDurability(t.TempDir(), apknn.DurabilityOptions{Fsync: apknn.FsyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	srv := serve.New(idx, serve.Config{Dim: ds.Dim()})
	t.Cleanup(func() {
		cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if err := srv.Close(cctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	node := &serve.Client{BaseURL: ts.URL}
	if _, err := node.Insert(ctx, ds.At(5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := node.Search(ctx, ds.At(i), 4); err != nil {
			t.Fatal(err)
		}
	}
	st, err := node.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tc := bootCluster(t, ds, 2, 1, false, cluster.Config{}, nil)
	for i := 0; i < 3; i++ {
		if _, err := tc.client.Search(ctx, ds.At(i), 4); err != nil {
			t.Fatal(err)
		}
	}
	cst := tc.router.Stats()

	nodeSeries, routerSeries := scrape(t, srv.Handler()), scrape(t, tc.router.Handler())
	for _, c := range []struct {
		series map[string]float64
		name   string
		stats  int64
		want   int64 // what the traffic above must have counted
	}{
		{nodeSeries, "apknn_serve_requests_total", st.Serving.Requests, 3},
		{nodeSeries, "apknn_serve_flushes_total", st.Serving.Flushes, 3},
		{nodeSeries, "apknn_serve_flushes_by_deadline_total", st.Serving.FlushesByDeadline, 3},
		{nodeSeries, "apknn_serve_inserts_total", st.Serving.Inserts, 1},
		{nodeSeries, "apknn_backend_queries_total", st.Backend.Queries, 3},
		{nodeSeries, "apknn_backend_symbols_streamed_total", st.Backend.SymbolsStreamed, st.Backend.SymbolsStreamed},
		{nodeSeries, "apknn_backend_candidates_scanned_total", st.Backend.CandidatesScanned, st.Backend.CandidatesScanned},
		{nodeSeries, "apknn_live_inserts_total", st.Backend.Live.Inserts, 1},
		{nodeSeries, "apknn_live_mixed_searches_total", st.Backend.Live.MixedSearches, 3},
		{nodeSeries, "apknn_live_delta_size", int64(st.Backend.Live.DeltaSize), 1},
		{nodeSeries, "apknn_wal_appends_total", st.Backend.Durability.Appends, 2}, // barrier + insert
		{nodeSeries, "apknn_wal_fsyncs_total", st.Backend.Durability.Fsyncs, st.Backend.Durability.Fsyncs},
		{nodeSeries, "apknn_wal_size_bytes", st.Backend.Durability.WALSize, st.Backend.Durability.WALSize},
		{routerSeries, "apknn_cluster_searches_total", cst.Searches, 3},
		{routerSeries, "apknn_cluster_shard_calls_total", cst.ShardCalls, 6},
		{routerSeries, `apknn_cluster_shard_legs_total{shard="1"}`, cst.ShardCalls / 2, 3},
	} {
		got, ok := c.series[c.name]
		if !ok {
			t.Errorf("%s: no such series on /metrics", c.name)
		} else if int64(got) != c.stats || c.stats != c.want || c.stats == 0 {
			t.Errorf("%s: /metrics %v, /v1/stats %d, want %d (nonzero)", c.name, got, c.stats, c.want)
		}
	}
}

// TestREADMEMetricNames keeps the README from becoming a fourth, drifting
// copy of the catalogue: every apknn_* series it names must be a family of
// one of the two golden files (or a histogram family's _bucket/_sum/_count
// sample, its _1m window summary, or the head of a glob some family matches).
func TestREADMEMetricNames(t *testing.T) {
	families := make(map[string]bool)
	for _, golden := range []string{"metrics_serve.golden", "metrics_router.golden"} {
		b, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			name, _, _ := strings.Cut(line, " ")
			families[name] = true
		}
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range regexp.MustCompile(`apknn_[a-z0-9_]+`).FindAllString(string(readme), -1) {
		known := families[name]
		for _, suffix := range []string{"_bucket", "_sum", "_count", "_1m"} {
			known = known || families[strings.TrimSuffix(name, suffix)]
		}
		if strings.HasSuffix(name, "_") { // the head of an apknn_serve_* glob
			for f := range families {
				known = known || strings.HasPrefix(f, name)
			}
		}
		if !known {
			t.Errorf("README.md names %s, which no golden catalogue lists", name)
		}
	}
}
