package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	apknn "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// tally counts every request the benchmark sent and every one that failed:
// a non-200, a transport error, or a reply the checker rejected.
type tally struct{ attempted, failed int }

// sample is one reply kept for the after-the-run oracle comparison.
type sample struct {
	q   apknn.Vector
	got []apknn.Neighbor
}

// driver is the single closed-loop client: it sends the workload's request
// stream one request at a time and checks every reply as it arrives.
type driver struct {
	e       *env
	ctx     context.Context
	queries *rng
	inserts *rng
	// ops is the position in the request stream; live_churn cycles
	// insert, search×3, delete-oldest, search×3 on it.
	ops     int
	asked   int // search queries sent, for deterministic oracle sampling
	samples []sample
	tally   tally
	// first keeps the first failure for the report.
	first firstError
	// warmRate is the requests per second the warm-up ran at; a timed phase
	// sizes its record storage by it.
	warmRate float64
	probe    *hostProbe
	// setupBursts are the probe bursts taken during set-up.
	setupBursts []time.Duration
}

func newDriver(e *env, seed uint64, probe *hostProbe) *driver {
	return &driver{e: e, ctx: context.Background(), probe: probe,
		queries: newRNG(seed, streamQueries), inserts: newRNG(seed, streamInserts)}
}

// firstError remembers the first non-nil error noted.
type firstError struct{ err error }

func (f *firstError) note(err error) {
	if f.err == nil {
		f.err = err
	}
}

func (d *driver) fail(err error) {
	d.tally.failed++
	d.first.note(err)
}

type opKind int

const (
	opSearch opKind = iota
	opWrite
)

// liveCycle is live_churn's fixed 1:3 write:read mix. Because the mix is
// fixed by count, a faster write can never show up as a slower read metric,
// and the live size stays at n so search cost does not drift.
const liveCycle = 8

// step sends the next request and returns its kind, its send→reply latency
// and how many correct search queries it answered. A write that fails is
// fatal: the mirror no longer knows the index's state.
func (d *driver) step() (opKind, time.Duration, int, error) {
	pos := d.ops
	d.ops++
	if d.e.sp.live {
		switch pos % liveCycle {
		case 0:
			lat, err := d.insert()
			return opWrite, lat, 0, err
		case liveCycle / 2:
			lat, err := d.deleteOldest()
			return opWrite, lat, 0, err
		}
	}
	lat, ok := d.search()
	return opSearch, lat, ok, nil
}

// search sends one search request of sp.batch fresh queries — a query is
// never sent twice in a run, so a result cache cannot score on replays.
func (d *driver) search() (time.Duration, int) {
	sp := d.e.sp
	words := make([][]uint64, sp.batch)
	vecs := make([]apknn.Vector, sp.batch)
	for i := range words {
		words[i] = d.e.data.random(d.queries)
		vecs[i] = d.e.data.vector(words[i])
	}
	d.tally.attempted++
	start := time.Now()
	replies, err := clientSearch(d.ctx, d.e.client, sp, vecs)
	lat := time.Since(start)
	if err == nil && len(replies) != sp.batch {
		err = fmt.Errorf("got %d replies for %d queries", len(replies), sp.batch)
	}
	for i := 0; err == nil && i < sp.batch; i++ {
		err = checkReply(replies[i], sp.k, words[i], d.e.lookup)
	}
	if err != nil {
		d.fail(fmt.Errorf("search %d: %w", d.ops-1, err))
		return lat, 0
	}
	for i := range replies {
		if sp.oracleEvery > 0 && d.asked%sp.oracleEvery == 0 {
			d.samples = append(d.samples, sample{q: vecs[i], got: replies[i]})
		}
		d.asked++
	}
	return lat, sp.batch
}

func (d *driver) insert() (time.Duration, error) {
	w := d.e.data.random(d.inserts)
	d.tally.attempted++
	start := time.Now()
	id, err := d.e.client.Insert(d.ctx, d.e.data.vector(w))
	lat := time.Since(start)
	if err == nil && id != d.e.data.len() {
		err = fmt.Errorf("assigned ID %d, mirror expects %d", id, d.e.data.len())
	}
	if err != nil {
		err = fmt.Errorf("insert %d: %w", d.ops-1, err)
		d.fail(err)
		return lat, err
	}
	d.e.data.words = append(d.e.data.words, w...)
	return lat, nil
}

func (d *driver) deleteOldest() (time.Duration, error) {
	d.tally.attempted++
	start := time.Now()
	err := d.e.client.Delete(d.ctx, d.e.lo)
	lat := time.Since(start)
	if err != nil {
		err = fmt.Errorf("delete %d (ID %d): %w", d.ops-1, d.e.lo, err)
		d.fail(err)
		return lat, err
	}
	d.e.lo++
	return lat, nil
}

// clientSearch sends one search request through the program's own client:
// POST /v1/search for a single query, /v1/search_batch for more.
func clientSearch(ctx context.Context, c *serve.Client, sp spec, vecs []apknn.Vector) ([][]apknn.Neighbor, error) {
	if sp.batch == 1 {
		resp, err := c.Search(ctx, vecs[0], sp.k)
		if err != nil {
			return nil, err
		}
		return [][]apknn.Neighbor{serve.Neighbors(resp.Neighbors)}, nil
	}
	return c.SearchBatch(ctx, vecs, sp.k)
}

// warm answers the fixed warm-up set; its length is a request count, not a
// time, so setup_s measures the same work on every run. It probes the host
// after every block, as a timed phase does, so that setup_s can be stated at
// the reference speed too.
func (d *driver) warm() error {
	start := time.Now()
	for i := 0; i < d.e.sp.warmup; i++ {
		if _, _, _, err := d.step(); err != nil {
			return err
		}
		if (i+1)%d.e.sp.block == 0 {
			d.setupBursts = append(d.setupBursts, d.probe.burst())
		}
	}
	d.warmRate = float64(d.e.sp.warmup) / time.Since(start).Seconds()
	return nil
}

// usage is the process-wide resource meter read at both ends of a phase.
type usage struct {
	mem  runtime.MemStats
	cpu  time.Duration // user + system
	hist map[string]obs.Snapshot
	idx  []apknn.Stats
	mod  []time.Duration
	srv  []apknn.ServingStats
	rtr  apknn.ClusterStats
}

func (e *env) readUsage() usage {
	var u usage
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	u.hist = make(map[string]obs.Snapshot)
	for _, s := range obs.Default.Snapshots() {
		u.hist[s.Name] = s
	}
	for _, nd := range e.nodes {
		u.idx = append(u.idx, nd.idx.Stats())
		u.mod = append(u.mod, nd.idx.ModeledTime())
		u.srv = append(u.srv, nd.srv.Stats())
	}
	if e.router != nil {
		u.rtr = e.router.Stats()
	}
	runtime.ReadMemStats(&u.mem)
	return u
}

// opRecord is one request of a timed phase.
type opRecord struct {
	lat     time.Duration // send→reply
	end     time.Duration // loop time (probes excluded) when the reply had been checked
	kind    opKind
	queries int // correct search queries it answered
}

// phase is what one timed closed-loop phase observed. dur, queries and the
// latencies cover the kept blocks, at the reference host speed (see fill);
// the rest covers the whole loop as the clock read it.
type phase struct {
	dur           time.Duration
	search, write []int64 // per-request latencies, ns, sorted
	queries       int     // correct search queries
	kept, blocks  int     // blocks the metrics cover, and all of them
	stolenBlocks  int     // blocks during which the steal counter advanced

	ops           int                // requests of the whole loop
	allQueries    int                // correct search queries of the whole loop
	wall          time.Duration      // the loop's length, probes excluded
	slowdown      float64            // median over the kept blocks: × slower than the reference
	rawP50        int64              // search p50 as measured, ns
	rates         [numSlices]float64 // search throughput of each tenth of the loop, as measured
	stolenPct     float64            // share of the machine's CPU time the hypervisor gave away
	before, after usage
}

// modeled returns the queries the indexes answered over the loop and the
// modeled AP time they took — device time from the AP model, never host time.
func (ph *phase) modeled() (queries float64, t time.Duration) {
	for i := range ph.after.idx {
		queries += float64(ph.after.idx[i].Queries - ph.before.idx[i].Queries)
		t += ph.after.mod[i] - ph.before.mod[i]
	}
	return queries, t
}

// mark is what the loop notes between two blocks of requests: how long a
// probe burst took, and the machine's steal counter.
type mark struct {
	burst  time.Duration
	stolen uint64 // clock ticks, cumulative
}

func (d *driver) mark() mark {
	stolen, _ := hostCPU()
	return mark{burst: d.probe.burst(), stolen: stolen}
}

// run drives the closed loop for total, marking the host's state before the
// first request and after every block of sp.block requests; the request in
// flight when the time is up belongs to the phase and ends it. The records'
// storage is allocated before the loop starts: the servers share this
// process's heap, and a heap that grew with the benchmark's bookkeeping
// spaced their collections further apart as the run went on (routed answered
// 10 % more per second in its last tenth than in its first).
func (d *driver) run(total time.Duration) (*phase, error) {
	block := d.e.sp.block
	recs := make([]opRecord, 0, int(1.5*total.Seconds()*d.warmRate)+1)
	marks := make([]mark, 0, cap(recs)/block+2)
	ph := &phase{before: d.e.readUsage()}
	stolen, all := hostCPU()
	marks = append(marks, d.mark())
	for ph.wall < total {
		start := time.Now()
		kind, lat, ok, err := d.step()
		if err != nil {
			return nil, err
		}
		ph.wall += time.Since(start)
		recs = append(recs, opRecord{lat: lat, end: ph.wall, kind: kind, queries: ok})
		if len(recs)%block == 0 {
			marks = append(marks, d.mark())
		}
	}
	if len(recs)%block != 0 {
		marks = append(marks, d.mark()) // closes the last, shorter block
	}
	if stolen2, all2 := hostCPU(); all2 > all {
		ph.stolenPct = 100 * float64(stolen2-stolen) / float64(all2-all)
	}
	ph.after = d.e.readUsage()
	ph.fill(recs, marks, block)
	return ph, nil
}

// fill computes the phase from its records; marks[b] and marks[b+1] bracket
// block b. Two things the host does are taken out, both read off the host
// and neither off a latency:
//
//   - A block's times are divided by the host's slowdown during it: the mean
//     of the probe bursts before and after it, over probeNominal.
//   - A block during which the hypervisor's steal counter advanced is left
//     out. Stolen time is not a slower machine but a stopped one: the vCPU is
//     off the core for milliseconds with a request in flight, the probes
//     between blocks never see it, and at 3 % steal it was the p99. If that
//     would leave less than a quarter of the blocks, the run is beyond
//     repair and keeps them all.
//
// The metrics are then the plain statistics over every request of the kept
// blocks.
func (ph *phase) fill(recs []opRecord, marks []mark, block int) {
	blocks := (len(recs) + block - 1) / block
	quiet := 0
	for b := 0; b < blocks; b++ {
		if marks[b+1].stolen == marks[b].stolen {
			quiet++
		}
	}
	keepAll := 4*quiet < blocks
	var slow []float64
	var raw []int64
	for b := 0; b < blocks; b++ {
		lo, hi := b*block, min((b+1)*block, len(recs))
		from := time.Duration(0)
		if b > 0 {
			from = recs[lo-1].end
		}
		for _, r := range recs[lo:hi] {
			if r.kind == opSearch {
				raw = append(raw, int64(r.lat))
			}
			ph.allQueries += r.queries
			slice := min(int(r.end*numSlices/ph.wall), numSlices-1)
			ph.rates[slice] += float64(r.queries) / (ph.wall.Seconds() / numSlices)
		}
		if marks[b+1].stolen != marks[b].stolen && !keepAll {
			continue
		}
		s := slowdown(marks[b].burst, marks[b+1].burst)
		slow = append(slow, s)
		for _, r := range recs[lo:hi] {
			lat := int64(float64(r.lat) / s)
			if r.kind == opWrite {
				ph.write = append(ph.write, lat)
			} else {
				ph.search = append(ph.search, lat)
			}
			ph.queries += r.queries
		}
		ph.dur += time.Duration(float64(recs[hi-1].end-from) / s)
	}
	sortInt64(ph.search)
	sortInt64(ph.write)
	ph.ops, ph.blocks, ph.kept, ph.stolenBlocks = len(recs), blocks, len(slow), blocks-quiet
	ph.rawP50 = percentile(sortInt64(raw), 50)
	_, ph.slowdown, _ = quartiles(slow)
}

// hostCPU reads the machine-wide CPU counters of /proc/stat, in clock ticks:
// those the hypervisor ran another tenant on while this VM had work (steal),
// and all of them. Both are 0 where the file or the field does not exist.
func hostCPU() (stolen, all uint64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		all += n
		if i == 7 {
			stolen = n
		}
	}
	return stolen, all
}

// verify compares every sampled reply with the brute-force oracle, or — on
// the mutating workload — sends a round of fresh queries and demands oracle
// equality with the mirror as it stands now.
func (d *driver) verify() error {
	if d.e.sp.live {
		return d.mirrorRound(func(q apknn.Vector) ([]apknn.Neighbor, error) {
			got, err := clientSearch(d.ctx, d.e.client, d.e.sp, []apknn.Vector{q})
			if err != nil {
				return nil, err
			}
			return got[0], nil
		})
	}
	or, err := newOracle(d.e.data, 0, d.e.data.len())
	if err != nil {
		return err
	}
	for i, s := range d.samples {
		if err := or.equal(s.q, d.e.sp.k, s.got); err != nil {
			d.fail(fmt.Errorf("oracle sample %d: %w", i, err))
		}
	}
	d.samples = nil
	return nil
}

// mirrorQueries is how many fresh queries each mirror round sends.
const mirrorQueries = 256

func (d *driver) mirrorRound(search func(apknn.Vector) ([]apknn.Neighbor, error)) error {
	or, err := newOracle(d.e.data, d.e.lo, d.e.data.len())
	if err != nil {
		return err
	}
	for i := 0; i < mirrorQueries; i++ {
		q := d.e.data.vector(d.e.data.random(d.queries))
		d.tally.attempted++
		got, err := search(q)
		if err == nil {
			err = or.equal(q, d.e.sp.k, got)
		}
		if err != nil {
			d.fail(fmt.Errorf("mirror query %d: %w", i, err))
		}
	}
	return nil
}

// recoveryCheck closes the durable index, reopens it from its directory
// alone, and demands the recovered index equal the mirror.
func (d *driver) recoveryCheck() (apknn.RecoveryInfo, error) {
	e := d.e
	if err := e.live.Close(); err != nil {
		return apknn.RecoveryInfo{}, fmt.Errorf("close live index: %w", err)
	}
	re, err := apknn.OpenLive(nil, liveOptions(e.sp, e.dir)...)
	if err != nil {
		return apknn.RecoveryInfo{}, fmt.Errorf("reopen %s: %w", e.dir, err)
	}
	defer re.Close()
	info, _ := re.Recovery()
	return info, d.mirrorRound(func(q apknn.Vector) ([]apknn.Neighbor, error) {
		res, err := re.Search(d.ctx, []apknn.Vector{q}, e.sp.k)
		if err != nil {
			return nil, err
		}
		return res[0], nil
	})
}

// heapMB is the program's live heap: HeapAlloc after two forced collections
// (the second frees what the first's finalizers and sync.Pool victims held),
// less the benchmark's own copy of the data and its probe buffer, which
// share the process. The median of five readings, because idle connections and timers still churn
// a few kilobytes in the background.
func (e *env) heapMB() float64 {
	var reads []float64
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		reads = append(reads, (float64(m.HeapAlloc)-float64(8*(cap(e.data.words)+probeWords)))/1e6)
		time.Sleep(10 * time.Millisecond)
	}
	_, med, _ := quartiles(reads)
	return med
}
