//go:build !race

package cluster_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	apknn "repro"
	"repro/internal/cluster"
)

// routedSearchAllocCeiling is what one POST /v1/search through
// router.Handler() may allocate, both shard legs over loopback HTTP and the
// shards' own handlers included (they share the process). The tree before
// the counters moved onto obs.Counter measured 551.
const routedSearchAllocCeiling = 560

func TestRoutedSearchAllocBudget(t *testing.T) {
	ds := apknn.RandomDataset(7, 2000, 32)
	tc := bootCluster(t, ds, 2, 1, false, cluster.Config{}, nil)
	h := tc.router.Handler()
	body := fmt.Sprintf(`{"query":%q,"k":8}`, ds.At(3).String())
	allocs := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("search answered %d: %s", rec.Code, rec.Body.String())
		}
	})
	t.Logf("%.0f allocations per routed POST /v1/search", allocs)
	if allocs > routedSearchAllocCeiling {
		t.Errorf("routed POST /v1/search allocates %.0f times, ceiling %d", allocs, routedSearchAllocCeiling)
	}
}
