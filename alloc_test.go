//go:build !race

package apknn_test

import (
	"context"
	"runtime"
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

// TestLiveSearchAllocBudget: what one LiveIndex.Search allocates does not
// depend on how much churn is pending. The base is handed the tombstones as
// an exclusion set and returns k neighbors; when it was asked for
// k + tombstones and the reply filtered through a map, 500 tombstones turned
// 336 bytes per search into about 10 KB (now 152 either way). A delta of 511
// entries, one of them the query itself so that every search merges a hit,
// is scanned into a pooled heap seeded with the base's k-th neighbor and
// merged into the base's list in place, so it adds nothing either. The
// slack is for a collection that empties a pool mid-run.
func TestLiveSearchAllocBudget(t *testing.T) {
	ds := apknn.RandomDataset(7, 32768, 64)
	idx, err := apknn.OpenLive(ds, apknn.WithBackend(apknn.CPU), apknn.WithCompactThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	q := apknn.RandomQueries(8, 1, 64)
	ctx := context.Background()
	search := func() {
		if _, err := idx.Search(ctx, q, 8); err != nil {
			t.Fatal(err)
		}
	}
	measure := func() (allocs, bytes float64) {
		const runs = 200
		allocs = testing.AllocsPerRun(runs, search)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			search()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	allocs0, bytes0 := measure()
	for id := 0; id < 500; id++ {
		if err := idx.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	allocs500, bytes500 := measure()
	for _, v := range append(apknn.RandomQueries(9, 510, 64), q[0]) {
		if _, err := idx.Insert(ctx, v); err != nil {
			t.Fatal(err)
		}
	}
	allocsDelta, bytesDelta := measure()
	t.Logf("per Search: %.0f allocations, %.0f B with no churn; %.0f, %.0f B with 500 tombstones; %.0f, %.0f B with 511 delta entries beside them",
		allocs0, bytes0, allocs500, bytes500, allocsDelta, bytesDelta)
	for _, c := range []struct {
		what          string
		allocs, bytes float64
	}{{"500 tombstones", allocs500, bytes500}, {"500 tombstones and 511 delta entries", allocsDelta, bytesDelta}} {
		if c.allocs > allocs0+1 || c.bytes > bytes0+256 {
			t.Errorf("%s cost a Search %.0f allocations and %.0f B over the %.0f and %.0f B of none; slack 1 and 256 B",
				c.what, c.allocs-allocs0, c.bytes-bytes0, allocs0, bytes0)
		}
	}
}
