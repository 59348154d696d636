// Package heat tracks query heat: which keys are hot and how hot, in
// bounded memory, cheap enough to sit on the serving hot path. It is the
// signal source the roadmap's hot-query cache and tail-shard-splitting
// advisor consume — both need "what are the top queries and how skewed is
// the load" without storing every distinct query ever seen.
//
// The Tracker is one streaming structure, a space-saving top-k table: it
// maintains the k (plus slack) heaviest keys exactly enough to rank them.
// When a new key arrives with the table full, it replaces the current
// minimum and inherits its count as the key's error bound — the Metwally et
// al. guarantee that any key with true frequency above the evicted minimum
// is present. The table takes one short critical section per key: a map
// lookup and a heap fix.
package heat

import (
	"container/heap"
	"sort"
	"sync"
	"sync/atomic"
)

// Entry is one tracked hot key: its space-saving count and the error bound
// inherited from the eviction it rode in on (0 = exact).
type Entry struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// Tracker is the query-heat tracker a server embeds: a total count of
// observations and a space-saving table of heavy hitters, of fixed
// capacity.
type Tracker struct {
	total    atomic.Uint64
	capacity int
	mu       sync.Mutex
	entries  map[string]*ssEntry
	heap     ssHeap // min-heap by count: the eviction candidate is the root
}

type ssEntry struct {
	key        string
	count, err uint64
	idx        int // heap position
}

// NewTracker sizes a tracker that reports about `reportK` hot keys: the
// space-saving table holds 4× that so ranks near the cut are trustworthy.
func NewTracker(reportK int) *Tracker {
	if reportK < 1 {
		reportK = 10
	}
	capacity := 4 * reportK
	return &Tracker{capacity: capacity, entries: make(map[string]*ssEntry, capacity)}
}

// Observe counts one occurrence of key, admitting it by evicting the
// current minimum if the table is full (the space-saving replacement rule).
func (t *Tracker) Observe(key string) {
	t.total.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[key]; ok {
		e.count++
		heap.Fix(&t.heap, e.idx)
		return
	}
	if len(t.entries) < t.capacity {
		e := &ssEntry{key: key, count: 1}
		t.entries[key] = e
		heap.Push(&t.heap, e)
		return
	}
	min := t.heap[0]
	delete(t.entries, min.key)
	// The newcomer inherits the evicted minimum's count — it may have
	// occurred up to that many times while untracked — and records that
	// inheritance as its error bound.
	min.err = min.count
	min.count++
	min.key = key
	t.entries[key] = min
	heap.Fix(&t.heap, 0)
}

// Total is the number of observations since construction.
func (t *Tracker) Total() uint64 { return t.total.Load() }

// Top returns up to n hot keys, heaviest first (n <= 0: every tracked key).
func (t *Tracker) Top(n int) []Entry {
	t.mu.Lock()
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, Entry{Key: e.key, Count: e.count, Err: e.err})
	}
	t.mu.Unlock()
	return rank(out, n)
}

type ssHeap []*ssEntry

func (h ssHeap) Len() int            { return len(h) }
func (h ssHeap) Less(i, j int) bool  { return h[i].count < h[j].count }
func (h ssHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *ssHeap) Push(x interface{}) { e := x.(*ssEntry); e.idx = len(*h); *h = append(*h, e) }
func (h *ssHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// MergeTop combines hot-key lists from several trackers (e.g. one per
// shard) by summing counts and error bounds per key, returning the n
// heaviest of the union — the aggregation the cluster router serves.
func MergeTop(n int, lists ...[]Entry) []Entry {
	byKey := make(map[string]*Entry)
	for _, list := range lists {
		for _, e := range list {
			if acc, ok := byKey[e.Key]; ok {
				acc.Count += e.Count
				acc.Err += e.Err
			} else {
				c := e
				byKey[e.Key] = &c
			}
		}
	}
	out := make([]Entry, 0, len(byKey))
	for _, e := range byKey {
		out = append(out, *e)
	}
	return rank(out, n)
}

// rank sorts entries count-descending, key tie-break so output is
// deterministic, and keeps the first n (n <= 0 keeps all).
func rank(out []Entry, n int) []Entry {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
