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

// searchAllocCeiling is what one POST /v1/search through srv.Handler() may
// allocate. The tree before the counters moved onto obs.Counter measured
// 96-97 here; the slack is for whatever a neighbouring test left running.
// Counting a request must cost no allocation, and wire work has a number to
// beat.
const searchAllocCeiling = 100

func TestSearchAllocBudget(t *testing.T) {
	ds := apknn.RandomDataset(7, 2000, 32)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.CPU), apknn.WithWorkers(1))
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
	if allocs > searchAllocCeiling {
		t.Errorf("POST /v1/search allocates %.0f times, ceiling %d", allocs, searchAllocCeiling)
	}
}
