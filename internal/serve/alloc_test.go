//go:build !race

package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	apknn "repro"
)

// TestSearchAllocBudget bounds what one POST /v1/search through
// srv.Handler() may allocate, so that neither counting a request nor
// answering it can quietly start costing allocations, and wire work has a
// number to beat. The cpu case measured 96-97 since the counters moved onto
// obs.Counter. The sharded case is the shape apserve boots by default
// (32768x64 on four modeled boards, 32 partitions): 93 since the fast
// substrate became one kernel scan, 607 when four per-board engines ran
// knn.Linear per partition and merged on the host. The slack is for
// whatever a neighbouring test left running.
func TestSearchAllocBudget(t *testing.T) {
	for _, c := range []struct {
		backend apknn.BackendKind
		n, dim  int
		ceiling float64
	}{
		{apknn.CPU, 2000, 32, 100},
		{apknn.Sharded, 32768, 64, 98},
	} {
		t.Run(string(c.backend), func(t *testing.T) {
			ds := apknn.RandomDataset(7, c.n, c.dim)
			idx, err := apknn.Open(ds, apknn.WithBackend(c.backend), apknn.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			srv := New(idx, Config{Dim: ds.Dim()})
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := srv.Close(ctx); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			h := srv.Handler()
			body := fmt.Sprintf(`{"query":%q,"k":8}`, ds.At(3).String())
			allocs := testing.AllocsPerRun(200, func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("search answered %d: %s", rec.Code, rec.Body.String())
				}
			})
			t.Logf("%.0f allocations per POST /v1/search", allocs)
			if allocs > c.ceiling {
				t.Errorf("POST /v1/search allocates %.0f times, ceiling %.0f", allocs, c.ceiling)
			}
		})
	}
}
