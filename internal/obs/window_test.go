package obs

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWindowQuantilesAgainstOracle is the per-window property test: record
// a distinct sample distribution into each slot-width of simulated time,
// and at every step require the window's quantiles to match the sorted
// oracle built from exactly the samples still inside the window.
func TestWindowQuantilesAgainstOracle(t *testing.T) {
	const (
		slots     = 6
		width     = 10 * time.Second
		perEpoch  = 3000
		numEpochs = 15
	)
	rng := rand.New(rand.NewSource(99))
	h := newHistogram("win", "")
	w := NewWindow(h, slots, width)
	base := time.Unix(1_700_000_000, 0)

	epochs := make([][]int64, 0, numEpochs)
	for e := 0; e < numEpochs; e++ {
		now := base.Add(time.Duration(e) * width)
		w.Snapshot(now) // rotate to this epoch before recording into it
		// Shift the distribution every epoch so stale samples leaking into
		// the window would move the quantiles detectably.
		scale := int64(1000 * (e + 1))
		samples := make([]int64, perEpoch)
		for i := range samples {
			samples[i] = scale + rng.Int63n(scale)
			h.RecordNS(samples[i])
		}
		epochs = append(epochs, samples)

		got := w.Snapshot(now)
		// The window holds this epoch and the previous slots-1 epochs
		// (the oldest boundary is slots-1 rotations back).
		lo := e - (slots - 1)
		if lo < 0 {
			lo = 0
		}
		var oracle []int64
		for _, ep := range epochs[lo:] {
			oracle = append(oracle, ep...)
		}
		sort.Slice(oracle, func(i, j int) bool { return oracle[i] < oracle[j] })
		if got.Count != int64(len(oracle)) {
			t.Fatalf("epoch %d: window count %d, want %d", e, got.Count, len(oracle))
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			est := got.Quantile(q)
			want := oracleQuantile(oracle, q)
			tol := int64(float64(want)*2/subCount) + 2
			if est < want-tol || est > want+tol {
				t.Errorf("epoch %d q%.2f = %d, oracle %d (tol %d)", e, q, est, want, tol)
			}
		}
		// Windowed max approximates from the top delta bucket: it must be
		// within one bucket width above the true max and never below it by
		// more than bucket resolution.
		trueMax := oracle[len(oracle)-1]
		if got.Max < trueMax-int64(float64(trueMax)/subCount)-1 || got.Max > bucketUpper(bucketIndex(trueMax)) {
			t.Errorf("epoch %d windowed max %d, true %d", e, got.Max, trueMax)
		}
	}
}

// TestWindowExpiry pins that samples actually leave: after slots epochs of
// silence the window reads empty even though the cumulative histogram does
// not, and the zero-count window produces all-zero summaries.
func TestWindowExpiry(t *testing.T) {
	h := newHistogram("expire", "")
	w := NewWindow(h, 3, time.Second)
	base := time.Unix(1_700_000_000, 0)
	w.Snapshot(base)
	for i := 0; i < 100; i++ {
		h.RecordNS(int64(1000 + i))
	}
	if got := w.Snapshot(base); got.Count != 100 {
		t.Fatalf("fresh window count %d, want 100", got.Count)
	}
	// Rotate past every slot with no new records.
	for e := 1; e <= 4; e++ {
		w.Snapshot(base.Add(time.Duration(e) * time.Second))
	}
	got := w.Snapshot(base.Add(5 * time.Second))
	if got.Count != 0 || got.Sum != 0 || got.Max != 0 {
		t.Fatalf("expired window = {count %d, sum %d, max %d}, want zeros", got.Count, got.Sum, got.Max)
	}
	if s := got.Summary(); s.P50NS != 0 || s.P99NS != 0 || s.MeanNS != 0 {
		t.Fatalf("zero-count window summary not zero: %+v", s)
	}
	if h.Snapshot().Count != 100 {
		t.Fatal("cumulative histogram lost samples on window expiry")
	}
}

// TestWindowZeroAndClamps covers the edges: a never-rotated window reports
// everything since boot; Sub with a zero snapshot is identity; Sub clamps
// negative deltas instead of corrupting quantile ranks; missed rotations
// clamp to the ring size.
func TestWindowZeroAndClamps(t *testing.T) {
	h := newHistogram("edge", "")
	for i := 0; i < 50; i++ {
		h.RecordNS(777)
	}
	w := NewWindow(h, 6, 10*time.Second)
	if got := w.Snapshot(time.Unix(1_700_000_000, 0)); got.Count != 50 {
		t.Fatalf("young window count %d, want everything since boot (50)", got.Count)
	}

	live := h.Snapshot()
	if d := live.Sub(Snapshot{}); d.Count != live.Count || d.Sum != live.Sum {
		t.Fatalf("Sub(zero) changed count/sum: %d/%d vs %d/%d", d.Count, d.Sum, live.Count, live.Sum)
	}
	// An "older" snapshot with a larger bucket count (impossible except under
	// racing copies) must clamp, not go negative.
	older := live
	older.Counts = append([]int64(nil), live.Counts...)
	older.Counts[bucketIndex(777)] += 5
	older.Sum += 5 * 777
	d := live.Sub(older)
	if d.Count != 0 || d.Sum != 0 {
		t.Fatalf("Sub did not clamp racing deltas: count %d sum %d", d.Count, d.Sum)
	}

	// A gap far longer than the ring: epochs clamp, window empties, and the
	// ring head stays in range.
	w.Snapshot(time.Unix(1_700_000_000, 0).Add(1000 * time.Second))
	if got := w.Snapshot(time.Unix(1_700_000_000, 0).Add(1001 * time.Second)); got.Count != 0 {
		t.Fatalf("window after 100-slot gap count %d, want 0", got.Count)
	}
}

// TestWindowMergedRingOracle: the windowed views of several histograms,
// summed bucket-wise, answer the quantiles of their concatenated samples —
// every shard's ring drops the same epochs, so Sub leaves the shards'
// windows aligned.
func TestWindowMergedRingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := time.Unix(1_700_000_000, 0)
	const shards = 3
	hs := make([]*Histogram, shards)
	ws := make([]*Window, shards)
	for i := range hs {
		hs[i] = newHistogram("shard", "")
		ws[i] = NewWindow(hs[i], 4, time.Second)
		ws[i].Snapshot(base)
	}
	var all []int64
	// Two epochs of old data that will expire, then two in-window epochs.
	for e := 0; e < 4; e++ {
		now := base.Add(time.Duration(e) * time.Second)
		for i := range ws {
			ws[i].Snapshot(now)
		}
		for j := 0; j < 2000; j++ {
			v := int64(rng.ExpFloat64() * 50_000)
			hs[j%shards].RecordNS(v)
			if e >= 1 { // epochs 1..3 are inside the 4-slot window at the end
				all = append(all, v)
			}
		}
	}
	// A fourth rotation pushes epoch 0 out of the 4-slot ring, leaving
	// exactly epochs 1..3 in every shard's window.
	now := base.Add(4 * time.Second)
	var merged Snapshot
	for _, w := range ws {
		s := w.Snapshot(now)
		if n := len(s.Counts) - len(merged.Counts); n > 0 {
			merged.Counts = append(merged.Counts, make([]int64, n)...)
		}
		for i, c := range s.Counts {
			merged.Counts[i] += c
		}
		merged.Count += s.Count
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if merged.Count != int64(len(all)) {
		t.Fatalf("merged window count %d, want %d", merged.Count, len(all))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := merged.Quantile(q)
		want := oracleQuantile(all, q)
		tol := int64(float64(want)*2/subCount) + 2
		if got < want-tol || got > want+tol {
			t.Errorf("merged q%.2f = %d, oracle %d (tol %d)", q, got, want, tol)
		}
	}
}

// TestWindowRotationRacesRecord is the -race hammer for the window path:
// writers hammer Record (lock-free) while readers rotate and subtract
// concurrently. Windowed views must never report more samples than were
// recorded in total, never tear (bucket sum == count by construction of
// Sub), and the final settled window must account for every sample.
func TestWindowRotationRacesRecord(t *testing.T) {
	const (
		writers   = 8
		perWriter = 4000
	)
	h := newHistogram("race", "")
	w := NewWindow(h, 4, 50*time.Millisecond)
	var now atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	now.Store(base.UnixNano())
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Advance simulated time so rotation actually happens while
				// records are in flight.
				t0 := time.Unix(0, now.Add(int64(7*time.Millisecond)))
				s := w.Snapshot(t0)
				var buckets int64
				for _, c := range s.Counts {
					buckets += c
				}
				if buckets != s.Count {
					t.Errorf("windowed snapshot tore: bucket sum %d != count %d", buckets, s.Count)
					return
				}
				if s.Count > int64(writers*perWriter) {
					t.Errorf("window count %d exceeds total recorded", s.Count)
					return
				}
				_ = s.Quantile(0.99)
			}
		}()
	}
	var writerWG sync.WaitGroup
	for i := 0; i < writers; i++ {
		writerWG.Add(1)
		go func(seed int64) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < perWriter; j++ {
				h.RecordNS(rng.Int63n(1_000_000))
			}
		}(int64(i))
	}
	writerWG.Wait()
	close(stop)
	readers.Wait()
	if got := h.Snapshot().Count; got != int64(writers*perWriter) {
		t.Fatalf("cumulative count %d, want %d", got, writers*perWriter)
	}
}

// TestRegistryWindowSummaries pins the /v1/stats windowed block and the
// /metrics _1m summary exposition: non-empty windows appear, empty ones are
// omitted, and the summary family carries quantile labels in seconds.
func TestRegistryWindowSummaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("apknn_win_seconds", "windowed test")
	r.Histogram("apknn_idle_seconds", "never fires")
	now := time.Unix(1_700_000_000, 0)
	h.WindowSnapshot(now)
	h.RecordNS(int64(2 * time.Millisecond))
	h.RecordNS(int64(4 * time.Millisecond))

	sums := r.WindowSummaries(now)
	if _, ok := sums["apknn_idle_seconds"]; ok {
		t.Fatal("idle histogram reported a windowed summary")
	}
	s, ok := sums["apknn_win_seconds"]
	if !ok || s.Count != 2 {
		t.Fatalf("windowed summary = %+v ok=%v", s, ok)
	}

	var sb strings.Builder
	r.WriteWindowed(&sb, now)
	text := sb.String()
	for _, want := range []string{
		"# TYPE apknn_win_seconds_1m summary",
		`apknn_win_seconds_1m{quantile="0.99"}`,
		"apknn_win_seconds_1m_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("windowed exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "apknn_idle_seconds") {
		t.Errorf("windowed exposition includes empty histogram:\n%s", text)
	}
}
