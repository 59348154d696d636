//go:build !race

package apknn_test

import (
	"context"
	"testing"

	apknn "repro"
)

// TestShardedSearchAllocBudget bounds what one query through the default
// serving backend may allocate: the validated batch, the result table and
// the query's neighbor list. The scan itself runs in the kernel's pooled
// scratch, and boards and partitions are charged to the meter, not executed,
// so the count does not grow with either (517 when 32 partitions each ran
// knn.Linear and merged). Three measured; the fourth is for a collection
// that empties the scratch pool mid-run.
func TestShardedSearchAllocBudget(t *testing.T) {
	ds := apknn.RandomDataset(7, 32768, 64)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Sharded))
	if err != nil {
		t.Fatal(err)
	}
	q := apknn.RandomQueries(8, 1, 64)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := idx.Search(ctx, q, 8); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per Search", allocs)
	if allocs > 4 {
		t.Errorf("Search allocates %.0f times, ceiling 4", allocs)
	}
}
