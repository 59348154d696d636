package obs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip pins the bucket geometry: every boundary value maps
// into a bucket whose [lower, upper] range contains it, indexes are
// monotone, and the relative bucket width never exceeds 2^-subBits.
func TestBucketRoundTrip(t *testing.T) {
	values := []int64{0, 1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 1000, 1e6, 1e9, 1e12, math.MaxInt64}
	prev := -1
	for _, v := range values {
		i := bucketIndex(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if lo, hi := bucketLower(i), bucketUpper(i); v < lo || v > hi {
			t.Fatalf("value %d mapped to bucket %d = [%d, %d]", v, i, lo, hi)
		}
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d", v)
		}
		prev = i
	}
	for i := 0; i < numBuckets-1; i++ {
		if bucketLower(i+1) != bucketUpper(i)+1 {
			t.Fatalf("gap between bucket %d upper %d and %d lower %d",
				i, bucketUpper(i), i+1, bucketLower(i+1))
		}
		lo, hi := bucketLower(i), bucketUpper(i)
		if lo >= subCount && float64(hi-lo+1)/float64(lo) > 1.0/subCount+1e-9 {
			t.Fatalf("bucket %d = [%d, %d] wider than 1/%d relative", i, lo, hi, subCount)
		}
	}
	if got := bucketIndex(math.MaxInt64); got != numBuckets-1 {
		t.Fatalf("MaxInt64 lands on bucket %d, want the last bucket %d", got, numBuckets-1)
	}
}

// oracleQuantile is the sorted-sample reference the histogram estimate is
// judged against: the rank-th smallest sample (1-based), where rank is the
// nearest rank, q*n rounded half up and held inside [1, n] — the same rank
// rule Snapshot.Quantile targets.
func oracleQuantile(sorted []int64, q float64) int64 {
	rank := int64(q*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > int64(len(sorted)) {
		rank = int64(len(sorted))
	}
	return sorted[rank-1]
}

// TestQuantilesAgainstOracle drives the histogram with several sample
// distributions and requires every estimated quantile to sit within one
// bucket width (2/subCount relative) of the exact sorted-sample answer.
func TestQuantilesAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(1_000_000) },
		"exp":       func() int64 { return int64(rng.ExpFloat64() * 50_000) },
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*2 + 10)) },
		"constant":  func() int64 { return 12345 },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 5_000_000 + rng.Int63n(1000) // the straggler mode
			}
			return 1000 + rng.Int63n(100)
		},
	}
	quantiles := []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for name, draw := range distributions {
		t.Run(name, func(t *testing.T) {
			h := newHistogram("test", "")
			samples := make([]int64, 0, 20000)
			for i := 0; i < 20000; i++ {
				v := draw()
				samples = append(samples, v)
				h.RecordNS(v)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			s := h.Snapshot()
			if s.Count != int64(len(samples)) {
				t.Fatalf("count %d, want %d", s.Count, len(samples))
			}
			if s.Max != samples[len(samples)-1] {
				t.Fatalf("max %d, want %d", s.Max, samples[len(samples)-1])
			}
			for _, q := range quantiles {
				got := s.Quantile(q)
				want := oracleQuantile(samples, q)
				// One log-linear bucket of slack either side.
				tol := int64(float64(want)*2/subCount) + 2
				if got < want-tol || got > want+tol {
					t.Errorf("q%.3f = %d, oracle %d (tol %d)", q, got, want, tol)
				}
			}
		})
	}
}

// TestMergeAssociativity splits one sample stream into three shards and
// checks that any merge order reproduces the unsharded histogram exactly —
// the property the cluster tier's scatter-gather aggregation relies on.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	whole := newHistogram("whole", "")
	parts := []*Histogram{newHistogram("a", ""), newHistogram("b", ""), newHistogram("c", "")}
	for i := 0; i < 30000; i++ {
		v := int64(rng.ExpFloat64() * 123456)
		whole.RecordNS(v)
		parts[i%3].RecordNS(v)
	}
	a, b, c := parts[0].Snapshot(), parts[1].Snapshot(), parts[2].Snapshot()
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	want := whole.Snapshot()
	for name, got := range map[string]Snapshot{"left": left, "right": right} {
		if got.Count != want.Count || got.Sum != want.Sum || got.Max != want.Max {
			t.Fatalf("%s merge: count/sum/max (%d,%d,%d) want (%d,%d,%d)",
				name, got.Count, got.Sum, got.Max, want.Count, want.Sum, want.Max)
		}
		for i := range want.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("%s merge: bucket %d = %d, want %d", name, i, got.Counts[i], want.Counts[i])
			}
		}
	}
	// Identity: merging with an empty snapshot changes nothing.
	if got := want.Merge(Snapshot{}); got.Count != want.Count || got.Sum != want.Sum {
		t.Fatalf("merge with zero snapshot changed count/sum")
	}
}

// TestConcurrentRecordSnapshot is the -race hammer: many goroutines record
// while others snapshot; every recorded sample must be accounted for at the
// end, and mid-flight snapshots must be internally consistent enough to
// never exceed the true totals.
func TestConcurrentRecordSnapshot(t *testing.T) {
	const (
		writers     = 8
		perWriter   = 5000
		snapshoters = 4
	)
	h := newHistogram("hammer", "")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < snapshoters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Snapshot()
				var buckets int64
				for _, c := range snap.Counts {
					buckets += c
				}
				// count is added after the bucket, so a mid-flight snapshot
				// may see more bucket entries than count — never fewer.
				if buckets < snap.Count {
					t.Errorf("snapshot tore: %d bucket entries < count %d", buckets, snap.Count)
					return
				}
				_ = snap.Quantile(0.99)
			}
		}()
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				h.RecordNS(rng.Int63n(1_000_000))
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()
	final := h.Snapshot()
	if want := int64(writers * perWriter); final.Count != want {
		t.Fatalf("final count %d, want %d", final.Count, want)
	}
}

// TestHistogramFirstTouchRace is the -race hammer for octave allocation:
// goroutines released together record one sample into every octave, in the
// same order, so each octave's first records race to install its counters
// while snapshots and windowed snapshots read alongside. A record that lost
// the install and added into dropped counters would go missing from the
// final count or a bucket.
func TestHistogramFirstTouchRace(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 20
	)
	now := time.Unix(1_700_000_000, 0)
	for r := 0; r < rounds; r++ {
		h := newHistogram("first_touch", "")
		start, stop := make(chan struct{}), make(chan struct{})
		var readers sync.WaitGroup
		for g := 0; g < 2; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					snap := h.Snapshot()
					var buckets int64
					for _, c := range snap.Counts {
						buckets += c
					}
					if buckets < snap.Count {
						t.Errorf("snapshot tore: %d bucket entries < count %d", buckets, snap.Count)
						return
					}
					_ = h.WindowSnapshot(now).Quantile(0.99)
				}
			}()
		}
		var writers sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			writers.Add(1)
			go func() {
				defer writers.Done()
				<-start
				for j := 0; j < numOctaves; j++ {
					h.RecordNS(bucketLower(j * subCount))
				}
			}()
		}
		close(start)
		writers.Wait()
		close(stop)
		readers.Wait()

		want := int64(goroutines * numOctaves)
		for name, s := range map[string]Snapshot{"snapshot": h.Snapshot(), "window": h.WindowSnapshot(now)} {
			var buckets int64
			for _, c := range s.Counts {
				buckets += c
			}
			if s.Count != want || buckets != want {
				t.Fatalf("round %d %s: count %d, bucket sum %d, want %d", r, name, s.Count, buckets, want)
			}
			for j := 0; j < numOctaves; j++ {
				if c := s.Counts[j*subCount]; c != goroutines {
					t.Fatalf("round %d %s: octave %d's first bucket holds %d, want %d", r, name, j, c, goroutines)
				}
			}
		}
	}
}

// BenchmarkHistogramRecord is the record path after warmup — every octave
// the samples reach is already touched — from one goroutine and from
// GOMAXPROCS goroutines sharing the histogram.
func BenchmarkHistogramRecord(b *testing.B) {
	samples := make([]int64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range samples {
		samples[i] = 10_000 + rng.Int63n(2_000_000) // 10 µs – 2 ms
	}
	warm := func() *Histogram {
		h := newHistogram("bench", "")
		for _, v := range samples {
			h.RecordNS(v)
		}
		return h
	}
	b.Run("serial", func(b *testing.B) {
		h := warm()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.RecordNS(samples[i%len(samples)])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		h := warm()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				h.RecordNS(samples[i%len(samples)])
			}
		})
	})
}

// TestRegistryGetOrCreate pins the sharing semantics: same name, same
// histogram; and Summaries omits series that never recorded.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("x_seconds", "help")
	b := r.Histogram("x_seconds", "other help ignored")
	if a != b {
		t.Fatal("same name returned distinct histograms")
	}
	r.Histogram("empty_seconds", "")
	a.Record(3 * time.Millisecond)
	sums := r.Summaries()
	if _, ok := sums["empty_seconds"]; ok {
		t.Fatal("empty histogram reported a summary")
	}
	s, ok := sums["x_seconds"]
	if !ok || s.Count != 1 || s.MaxNS != int64(3*time.Millisecond) {
		t.Fatalf("summary = %+v, ok=%v", s, ok)
	}
}

// TestPrometheusExposition checks the wire format: HELP/TYPE headers,
// cumulative monotone buckets ending at +Inf == _count, and seconds units.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("apknn_test_seconds", "test histogram")
	h.Record(1 * time.Millisecond)
	h.Record(2 * time.Millisecond)
	h.Record(1 * time.Second)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"# HELP apknn_test_seconds test histogram",
		"# TYPE apknn_test_seconds histogram",
		`apknn_test_seconds_bucket{le="+Inf"} 3`,
		"apknn_test_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Buckets must be cumulative and non-decreasing.
	var last int64 = -1
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "apknn_test_seconds_bucket") {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = n
	}
	if last != 3 {
		t.Fatalf("last bucket %d, want 3", last)
	}
}

// formattedHistogram is a histogram family's exposition as it was written
// through Fprintf, one string per bound: the reference the appended lines
// must equal.
func formattedHistogram(s Snapshot) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s histogram\n", s.Name, s.Help, s.Name)
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		fmt.Fprintf(&sb, "%s_bucket{le=%q} %d\n", s.Name, secs(bucketUpper(i)), cum)
	}
	fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d\n", s.Name, s.Count)
	fmt.Fprintf(&sb, "%s_sum %s\n", s.Name, secs(s.Sum))
	fmt.Fprintf(&sb, "%s_count %d\n", s.Name, s.Count)
	return sb.String()
}

// TestExpositionMatchesFormatted: the appended exposition is byte for byte
// what formatting each line wrote, from an empty histogram to samples spread
// over every octave; and a labeled family carries its label on every sample
// and its header once.
func TestExpositionMatchesFormatted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 200; n += 1 + n/2 {
		h := NewUnregisteredHistogram("apknn_fmt_seconds", "reference check")
		for i := 0; i < n; i++ {
			h.RecordNS(rng.Int63n(1 << uint(rng.Intn(62))))
		}
		s := h.Snapshot()
		got := string(appendSeries(appendHeader(nil, s.Name, s.Help), s, ""))
		if want := formattedHistogram(s); got != want {
			t.Fatalf("%d samples: got\n%s\nwant\n%s", n, got, want)
		}
	}

	r := NewRegistry()
	v := r.HistogramVec("apknn_vec_seconds", "labeled", "root")
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if want := "# HELP apknn_vec_seconds labeled\n# TYPE apknn_vec_seconds histogram\n"; sb.String() != want {
		t.Fatalf("memberless family wrote\n%s\nwant\n%s", sb.String(), want)
	}
	v.With("b").Record(2 * time.Millisecond)
	v.With("a").Record(time.Millisecond)
	sb.Reset()
	r.WritePrometheus(&sb)
	want := `# HELP apknn_vec_seconds labeled
# TYPE apknn_vec_seconds histogram
apknn_vec_seconds_bucket{root="a",le="0.001015807"} 1
apknn_vec_seconds_bucket{root="a",le="+Inf"} 1
apknn_vec_seconds_sum{root="a"} 0.001
apknn_vec_seconds_count{root="a"} 1
apknn_vec_seconds_bucket{root="b",le="0.002031615"} 1
apknn_vec_seconds_bucket{root="b",le="+Inf"} 1
apknn_vec_seconds_sum{root="b"} 0.002
apknn_vec_seconds_count{root="b"} 1
`
	if sb.String() != want {
		t.Fatalf("labeled family wrote\n%s\nwant\n%s", sb.String(), want)
	}
	if _, ok := r.Summaries()["apknn_vec_seconds"]; ok {
		t.Fatal("a labeled family's member reported a /v1/stats summary")
	}
}
