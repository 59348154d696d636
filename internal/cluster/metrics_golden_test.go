package cluster_test

import (
	"bufio"
	"context"
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
// silently. The serve node runs with SLO admission and anomaly capture on,
// which lists their conditional series too. To accept an intended change,
// replace the golden file with the catalogue the failure prints.
func TestMetricCatalogueGolden(t *testing.T) {
	ds := apknn.RandomDataset(71, 200, 32)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.CPU))
	if err != nil {
		t.Fatal(err)
	}
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
