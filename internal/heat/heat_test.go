package heat

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestTopKFindsHeavyHitters checks the space-saving guarantee: with enough
// capacity, every key whose true frequency clears the eviction floor is
// present, ranked correctly, and its count is within its error bound.
func TestTopKFindsHeavyHitters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := NewTracker(10)
	truth := make(map[string]uint64)
	// 8 heavy keys on a long uniform tail.
	for i := 0; i < 50_000; i++ {
		var key string
		if rng.Intn(100) < 60 {
			key = fmt.Sprintf("hot%d", rng.Intn(8))
		} else {
			key = fmt.Sprintf("cold%d", rng.Intn(20_000))
		}
		truth[key]++
		tr.Observe(key)
	}
	top := tr.Top(10)
	if len(top) == 0 {
		t.Fatal("empty top list")
	}
	inTop := make(map[string]Entry)
	for _, e := range top {
		inTop[e.Key] = e
	}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("hot%d", i)
		e, ok := inTop[key]
		if !ok {
			t.Fatalf("heavy hitter %q missing from top-10: %v", key, top)
		}
		if e.Count < truth[key] || e.Count-e.Err > truth[key] {
			t.Fatalf("%q count %d (err %d), true %d", key, e.Count, e.Err, truth[key])
		}
	}
	for i := 1; i < len(top); i++ {
		if top[i].Count > top[i-1].Count {
			t.Fatalf("top list not count-descending at %d", i)
		}
	}
	if tr.Total() != 50_000 {
		t.Fatalf("total %d, want 50000", tr.Total())
	}
}

// TestMergeTop pins the cross-shard aggregation: counts sum per key and the
// merged ranking reflects the union stream.
func TestMergeTop(t *testing.T) {
	a := []Entry{{Key: "x", Count: 10}, {Key: "y", Count: 6}, {Key: "z", Count: 1}}
	b := []Entry{{Key: "y", Count: 7, Err: 1}, {Key: "w", Count: 9}}
	got := MergeTop(3, a, b)
	want := []Entry{{Key: "y", Count: 13, Err: 1}, {Key: "x", Count: 10}, {Key: "w", Count: 9}}
	if len(got) != len(want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestTrackerConcurrent is the -race check: concurrent observers, a reader
// polling Top, and an exact final total.
func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker(5)
	const writers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.Top(5)
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < per; i++ {
				tr.Observe(fmt.Sprintf("k%d", (w+i)%10))
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if tr.Total() != writers*per {
		t.Fatalf("total %d, want %d", tr.Total(), writers*per)
	}
	var sum uint64
	for _, e := range tr.Top(0) {
		sum += e.Count
	}
	if sum != writers*per {
		t.Fatalf("tracked counts sum %d, want %d (capacity exceeds keyspace, no evictions)", sum, writers*per)
	}
}
