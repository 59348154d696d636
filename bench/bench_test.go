package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	apknn "repro"
)

func TestPercentileAgainstSortedOracle(t *testing.T) {
	r := newRNG(7, 1)
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 3600} {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(r.next() % 1000)
		}
		sortInt64(s)
		for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 100} {
			// Oracle: the smallest value with at least p% of the sample at or below it.
			want := s[n-1]
			for _, v := range s {
				atOrBelow := sort.Search(n, func(i int) bool { return s[i] > v })
				if float64(atOrBelow) >= p/100*float64(n) {
					want = v
					break
				}
			}
			if got := percentile(s, p); got != want {
				t.Errorf("n=%d p=%v: got %d, oracle %d", n, p, got, want)
			}
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must yield 0")
	}
}

// The expected values are Python's statistics.quantiles(values, n=4), the
// function the acceptance driver measures spread with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{20, 1, 7, 3}, [3]float64{1.5, 5.0, 16.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2, 4, 4.5, 9, 10}, [3]float64{3, 4.5, 9.5}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.in)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if s := spread([]float64{10, 10, 10, 10}); s != 0 {
		t.Errorf("spread of a constant = %v", s)
	}
}

func TestSliceSpread(t *testing.T) {
	var even [numSlices]float64
	for i := range even {
		even[i] = 500
	}
	if got := sliceSpreadPct(even); got != 0 {
		t.Errorf("even slices spread %v%%", got)
	}
	uneven := even
	for i := 0; i < numSlices/2; i++ {
		uneven[i] = 250 // half the run at half speed
	}
	if got := sliceSpreadPct(uneven); got <= disturbedPct {
		t.Errorf("a run that halved its speed midway spreads only %v%%", got)
	}
}

// TestFillStatesTimesAtReferenceSpeed: a loop during which the host went
// from the reference speed to three times slower must read as if it had run
// at the reference speed throughout — every request counted, the program's
// own slow request included — while the raw numbers show the host. A block
// the hypervisor stole from is left out, unless most were stolen from.
func TestFillStatesTimesAtReferenceSpeed(t *testing.T) {
	const block = 4
	// A block's slowdown is the mean of the bursts around it: 1 1 2 3 3 3 3.
	// The steal counter advances during the sixth block only.
	var marks []mark
	for i, host := range []time.Duration{1, 1, 1, 3, 3, 3, 3, 3} {
		stolen := uint64(7)
		if i >= 6 {
			stolen = 9
		}
		marks = append(marks, mark{burst: host * probeNominal, stolen: stolen})
	}
	var recs []opRecord
	end := time.Duration(0)
	add := func(lat time.Duration, kind opKind) {
		end += lat
		queries := 1
		if kind == opWrite {
			queries = 0
		}
		recs = append(recs, opRecord{lat: lat, end: end, kind: kind, queries: queries})
	}
	for i, host := range []time.Duration{1, 1, 2, 3, 3, 3} {
		base := host * 100 * time.Microsecond
		add(base/2, opWrite)
		add(base, opSearch)
		add(base, opSearch)
		add(4*base, opSearch) // what the program does to itself: scaled like the rest, not dropped
		if i == 5 {
			recs[len(recs)-2].lat = 20 * time.Millisecond // the vCPU was off the core
		}
	}
	add(300*time.Microsecond, opSearch) // a last, shorter block

	ph := &phase{wall: end}
	ph.fill(recs, marks, block)
	if ph.ops != 25 || ph.blocks != 7 || ph.kept != 6 || ph.stolenBlocks != 1 || ph.allQueries != 19 {
		t.Fatalf("ops %d blocks %d kept %d stolen %d queries %d", ph.ops, ph.blocks, ph.kept, ph.stolenBlocks, ph.allQueries)
	}
	if ph.queries != 16 || len(ph.search) != 16 || len(ph.write) != 5 {
		t.Fatalf("kept queries %d searches %d writes %d", ph.queries, len(ph.search), len(ph.write))
	}
	us := int64(time.Microsecond)
	if p50, p99 := percentile(ph.search, 50), percentile(ph.search, 99); p50 != 100*us || p99 != 400*us || ph.write[4] != 50*us {
		t.Errorf("p50 %d ns, p99 %d ns, slowest write %d ns: want 100, 400 and 50 µs at the reference speed", p50, p99, ph.write[4])
	}
	if ph.rawP50 != 300*us {
		t.Errorf("raw p50 %d ns, want the 300 µs the clock read", ph.rawP50)
	}
	if want := 5*650*time.Microsecond + 100*time.Microsecond; ph.dur != want {
		t.Errorf("phase lasted %v at the reference speed, want %v (clock: %v)", ph.dur, want, end)
	}
	if ph.slowdown != 2.5 {
		t.Errorf("median slowdown %v, want 2.5", ph.slowdown)
	}
	sum := 0.0
	for _, r := range ph.rates {
		sum += r * end.Seconds() / numSlices
	}
	if math.Abs(sum-19) > 1e-9 {
		t.Errorf("the ten slices hold %v queries of 19", sum)
	}

	// Stolen from in six blocks of seven: nothing clean enough to prefer.
	for i := range marks {
		marks[i].stolen = uint64(i)
	}
	marks[1].stolen = 0
	ph = &phase{wall: end}
	ph.fill(recs, marks, block)
	if ph.kept != 7 || ph.stolenBlocks != 6 || len(ph.search) != 19 {
		t.Errorf("kept %d of 7 blocks (%d stolen), %d searches", ph.kept, ph.stolenBlocks, len(ph.search))
	}
}

func TestHostProbe(t *testing.T) {
	p := newHostProbe()
	if b := p.burst(); b <= 0 || b > 100*probeNominal {
		t.Errorf("a burst took %v against a nominal %v", b, probeNominal)
	}
	if s := slowdown(probeNominal, 3*probeNominal); s != 2 {
		t.Errorf("slowdown %v, want 2", s)
	}
}

func TestAPDSRoundTrip(t *testing.T) {
	v := genVectors(newRNG(3, streamDataset), 100, 70) // 70 bits: a non-zero tail to mask
	ds, err := v.dataset(10, 60)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 50 || ds.Dim() != 70 {
		t.Fatalf("parsed %d×%d", ds.Len(), ds.Dim())
	}
	for i := 0; i < ds.Len(); i++ {
		if hamming(ds.WordsAt(i), v.at(10+i)) != 0 {
			t.Fatalf("vector %d differs after the round trip", i)
		}
	}
	if a, b := genVectors(newRNG(3, streamDataset), 8, 70), genVectors(newRNG(4, streamDataset), 8, 70); hamming(a.words, v.words[:len(a.words)]) != 0 || hamming(a.words, b.words) == 0 {
		t.Error("inputs must depend on the seed and on nothing else")
	}
}

// The checker must reject each kind of wrong reply it exists to catch.
func TestCheckerRejectsTamperedReplies(t *testing.T) {
	const n, dim, k = 512, 64, 8
	v := genVectors(newRNG(11, streamDataset), n, dim)
	or, err := newOracle(v, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(id int) []uint64 {
		if id < 0 || id >= n {
			return nil
		}
		return v.at(id)
	}
	qw := v.random(newRNG(11, streamQueries))
	q := v.vector(qw)
	good := apknn.ExactSearch(or.ds, []apknn.Vector{q}, k, 1)[0]
	if err := checkReply(good, k, qw, lookup); err != nil {
		t.Fatalf("honest reply rejected: %v", err)
	}
	if err := or.equal(q, k, good); err != nil {
		t.Fatalf("honest reply fails the oracle: %v", err)
	}
	tamper := func(f func(r []apknn.Neighbor) []apknn.Neighbor) []apknn.Neighbor {
		return f(append([]apknn.Neighbor(nil), good...))
	}
	structural := map[string][]apknn.Neighbor{
		"wrong distance": tamper(func(r []apknn.Neighbor) []apknn.Neighbor { r[3].Dist++; return r }),
		"unsorted":       tamper(func(r []apknn.Neighbor) []apknn.Neighbor { r[0], r[k-1] = r[k-1], r[0]; return r }),
		"duplicate":      tamper(func(r []apknn.Neighbor) []apknn.Neighbor { r[1] = r[0]; return r }),
		"too few":        tamper(func(r []apknn.Neighbor) []apknn.Neighbor { return r[:k-1] }),
		"dead ID":        tamper(func(r []apknn.Neighbor) []apknn.Neighbor { r[k-1].ID = n + 5; return r }),
	}
	for name, reply := range structural {
		if checkReply(reply, k, qw, lookup) == nil {
			t.Errorf("%s: checkReply accepted it", name)
		}
	}
	// A missing neighbor keeps every structural invariant: the true 1st is
	// dropped and the true (k+1)-th appended. Only the oracle sees it.
	more := apknn.ExactSearch(or.ds, []apknn.Vector{q}, k+1, 1)[0]
	missing := more[1:]
	if err := checkReply(missing, k, qw, lookup); err != nil {
		t.Fatalf("missing-neighbor reply should pass the structural check: %v", err)
	}
	if or.equal(q, k, missing) == nil {
		t.Error("missing neighbor: the oracle accepted it")
	}
}

// shrunk returns the workload at a size a unit test can afford.
func shrunk(sp spec) spec {
	sp.n = 4096
	sp.warmup = 64
	sp.replays = 20
	return sp
}

// TestLiveMirror drives the mutating workload's stream, then checks that
// the mirror agrees with knn.Linear over the served index — and that a
// mirror one delete out of step does not.
func TestLiveMirror(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers")
	}
	sp, _ := specByName("live_churn")
	sp = shrunk(sp)
	sp.warmup = 1024*liveCycle/2 + 512 // past one compaction threshold, with churn left pending
	dir, err := freshDir(t.TempDir(), sp.name)
	if err != nil {
		t.Fatal(err)
	}
	e, err := boot(sp, genInputs(sp, 5), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	d := newDriver(e, 5, newHostProbe())
	if err := d.warm(); err != nil {
		t.Fatal(err)
	}
	if err := d.verify(); err != nil {
		t.Fatal(err)
	}
	if d.tally.failed != 0 {
		t.Fatalf("%d of %d requests failed: %v", d.tally.failed, d.tally.attempted, d.first.err)
	}
	if got := e.live.Len(); got != e.data.len()-e.lo || got != sp.n {
		t.Fatalf("index holds %d vectors, mirror %d, want %d", got, e.data.len()-e.lo, sp.n)
	}
	if info, err := d.recoveryCheck(); err != nil || d.tally.failed != 0 || !info.Recovered {
		t.Fatalf("recovery: err=%v failed=%d info=%+v first=%v", err, d.tally.failed, info, d.first.err)
	}
	// A mirror one delete out of step must be caught. Querying with the
	// deleted vector itself makes that certain: a mirror that still holds
	// it expects it first, at distance 0, and the index cannot return it.
	reopened, err := apknn.OpenLive(nil, liveOptions(sp, dir)...)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	stale := e.lo - 1
	or, err := newOracle(e.data, stale, e.data.len())
	if err != nil {
		t.Fatal(err)
	}
	q := e.data.vector(e.data.at(stale))
	res, err := reopened.Search(d.ctx, []apknn.Vector{q}, sp.k)
	if err != nil {
		t.Fatal(err)
	}
	if or.equal(q, sp.k, res[0]) == nil {
		t.Error("a mirror holding a deleted vector agreed with the index")
	}
}

// TestSmoke runs every workload for a second, untraced and traced, so that
// API drift in serve, cluster or live breaks the tests rather than the next
// performance change, and checks the result carries exactly the declared
// metrics. The workloads run side by side: nothing here asserts a time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and runs timed phases")
	}
	for _, sp := range specs {
		sp := shrunk(sp)
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			smoke(t, sp)
		})
	}
}

func smoke(t *testing.T, sp spec) {
	for _, traced := range []bool{false, true} {
		o := options{workload: sp.name, seed: 9, seconds: 1, trace: traced, out: t.TempDir()}
		res, diag, err := runWorkload(sp, o)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d (%s)", sp.name, traced, res.Correct, res.Failed, res.Attempted, diag)
		}
		want := perLayer
		if !traced {
			want = append([]metricDef(nil), endToEnd...)
			for _, def := range ownEndToEnd {
				if def.only == "" || def.only == sp.name {
					want = append(want, def)
				}
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s traced=%v: %d metrics, want %d", sp.name, traced, len(res.Metrics), len(want))
		}
		for _, def := range want {
			m, ok := res.Metrics[def.name]
			if !ok || m.Unit != def.unit {
				t.Errorf("%s traced=%v: metric %s missing or in unit %q", sp.name, traced, def.name, m.Unit)
			}
			if !traced && !(m.Value > 0) && def.name != "failed_share" {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", sp.name, def.name, m.Value)
			}
		}
		if traced {
			own := map[string]bool{"cluster.handler_ns": sp.shards > 0, "live.insert_ns": sp.live, "wal.append_ns": sp.live,
				"ap.fast_query_ns": sp.backend == apknn.Sharded}
			for name, mine := range own {
				if got := res.Metrics[name].Value != 0; got != mine {
					t.Errorf("%s: %s non-zero=%v, want %v", sp.name, name, got, mine)
				}
			}
			if _, err := os.Stat(o.out + "/trace-" + sp.name + ".jsonl"); err != nil {
				t.Errorf("%s: no span file: %v", sp.name, err)
			}
		}
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go and workload.go one declaration.
func TestManifestMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d defined", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a reason of at most 200", i, w.Name, len(w.Why), specs[i].name)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, g, w)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25) {
				t.Errorf("%s %s: bound declared %v, defined %v", kind, g.Name, g.Bound, w.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, g.Name)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd, true)
	same("per_layer", m.PerLayer, perLayer, false)
	if m.RunSeconds != manifestSeconds || len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("run_seconds=%d paths=%v", m.RunSeconds, m.Paths)
	}
}
