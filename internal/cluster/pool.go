package cluster

import (
	"context"
	"log/slog"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Replica scoring. Each replica carries an EWMA of its observed leg latency;
// candidate ordering prefers low scores. The score decays toward zero with
// age, so a replica that went slow (or was penalized for a transport
// failure) and then stopped receiving traffic re-earns its share instead of
// being starved forever on stale evidence.
const (
	// ewmaAlpha weights each new leg sample into the replica's score.
	ewmaAlpha = 0.3
	// scoreHalfLife halves a replica's score per interval without
	// observations — the decay that lets a penalized replica recover.
	scoreHalfLife = 10 * time.Second
	// transportPenaltyNS is the latency a transport failure is charged as,
	// at minimum — an unreachable replica scores worse than any answering
	// one until the penalty decays.
	transportPenaltyNS = float64(500 * time.Millisecond)
	// hedgeMinSamples is the windowed sample count a replica needs before
	// its own p99 drives the hedge timer; below it the static delay rules.
	hedgeMinSamples = 20
	// hedgeFloor and hedgeCeil clamp adaptive hedge delays: never hedge so
	// eagerly that every request duplicates, never wait longer than a
	// failover would take to be worth arming at all.
	hedgeFloor = time.Millisecond
	hedgeCeil  = 2 * time.Second
)

// replica is one apserve endpoint of a shard's replica set, with the
// router's current health verdict and latency score. Replicas start healthy
// and unscored; the prober and transport-level request failures eject them,
// a succeeding probe readmits them, and every scatter-leg answer feeds the
// EWMA the candidate ordering reads.
type replica struct {
	shard   int
	addr    string
	client  *serve.Client
	healthy atomic.Bool
	// ewmaNS is the smoothed leg latency in nanoseconds (as Float64bits);
	// zero means never observed — cold replicas sort first and get traffic.
	ewmaNS atomic.Uint64
	// lastObs is the UnixNano of the last observation or penalty, the
	// anchor the score decay ages against.
	lastObs atomic.Int64
	// hist is this replica's own leg-latency series (unregistered — the
	// per-replica cardinality stays off /metrics); its built-in minute
	// window supplies the adaptive hedge delay through legP99, a cached
	// read because every adaptive leg asks.
	hist   *obs.Histogram
	legP99 *obs.WindowQuantile
}

// newReplica builds one healthy, unscored replica of a shard.
func newReplica(shard int, addr string, streams *serve.StreamTransport) *replica {
	rep := &replica{
		shard:  shard,
		addr:   addr,
		client: &serve.Client{BaseURL: addr, Stream: streams},
		hist: obs.NewUnregisteredHistogram("apknn_cluster_replica_leg_seconds",
			"Per-replica shard leg latency (windowed, drives adaptive hedging)"),
	}
	rep.legP99 = rep.hist.WindowQuantile(0.99)
	rep.healthy.Store(true)
	return rep
}

// observe folds one successful leg latency into the replica's score and
// windowed history.
func (rep *replica) observe(leg time.Duration, now time.Time) {
	rep.hist.Record(leg)
	rep.updateScore(float64(leg), now)
}

// penalize charges a transport failure as a slow observation — at least
// transportPenaltyNS, or 4× the current score if that is already worse — so
// the failing replica drops to the back of the candidate order and decays
// back in rather than flapping.
func (rep *replica) penalize(now time.Time) {
	cur := math.Float64frombits(rep.ewmaNS.Load())
	rep.updateScore(math.Max(transportPenaltyNS, 4*cur), now)
}

func (rep *replica) updateScore(sample float64, now time.Time) {
	for {
		old := rep.ewmaNS.Load()
		cur := math.Float64frombits(old)
		next := sample
		if cur != 0 {
			next = (1-ewmaAlpha)*cur + ewmaAlpha*sample
		}
		if rep.ewmaNS.CompareAndSwap(old, math.Float64bits(next)) {
			rep.lastObs.Store(now.UnixNano())
			return
		}
	}
}

// score is the replica's age-decayed latency estimate in nanoseconds; lower
// routes sooner. Zero means no evidence — never-observed (or fully decayed)
// replicas look maximally attractive and re-earn traffic.
func (rep *replica) score(now time.Time) float64 {
	v := math.Float64frombits(rep.ewmaNS.Load())
	if v == 0 {
		return 0
	}
	age := now.UnixNano() - rep.lastObs.Load()
	if age <= 0 {
		return v
	}
	return v * math.Exp2(-float64(age)/float64(scoreHalfLife))
}

// hedgeDelay derives the hedge timer from this replica's own windowed leg
// p99: a request is hedged exactly when it is a straggler by the primary's
// recent standards. Too few samples in the window returns zero and the
// caller falls back to the static delay. The p99 and the sample count are up
// to a second old (obs.WindowQuantile).
func (rep *replica) hedgeDelay(now time.Time) time.Duration {
	p99, samples := rep.legP99.At(now)
	if samples < hedgeMinSamples {
		return 0
	}
	d := time.Duration(p99)
	if d < hedgeFloor {
		d = hedgeFloor
	}
	if d > hedgeCeil {
		d = hedgeCeil
	}
	return d
}

// shardSet is a shard's replica set with latency-aware primary selection,
// the per-shard face of the client pool.
type shardSet struct {
	shard    int
	base     int
	replicas []*replica
	// seq feeds the power-of-two-choices sampler — a counter run through a
	// mixer, so candidate picks are spread without a locked rand source.
	seq atomic.Uint64
	// insertMu serializes insert broadcasts to this shard: replicas assign
	// local IDs in arrival order, so two inserts racing through one router
	// could land in opposite orders on different replicas and permanently
	// swap their ID assignments even though every replica acked. Holding
	// the broadcast under a lock makes all replicas see one router's
	// inserts in one order. (Deletes are by-ID tombstones, order-free.)
	insertMu sync.Mutex
	// legs counts attempts launched against this shard — this shard's
	// member of apknn_cluster_shard_legs_total.
	legs *obs.Counter
	// stage names this shard's leg spans ("shard<i>_leg").
	stage string
}

// mix64 is splitmix64's finalizer — a cheap stateless bit mixer that turns
// the sequential pick counter into well-spread candidate indices.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// candidates returns the replicas in attempt order for one request. The
// primary is chosen by power-of-two-choices over the healthy set: two
// pseudo-random picks, the one with the lower age-decayed latency EWMA
// leads. Sampling two instead of taking the global minimum keeps a stale
// score from herding every request onto one replica between observations.
// The remaining healthy replicas follow score-ascending as failover
// targets, then ejected replicas as a last resort — a shard whose every
// replica has been ejected still gets tried rather than failing without a
// single request.
func (s *shardSet) candidates() []*replica {
	n := len(s.replicas)
	out := make([]*replica, 0, n)
	var down []*replica
	for _, rep := range s.replicas {
		if rep.healthy.Load() {
			out = append(out, rep)
		} else {
			down = append(down, rep)
		}
	}
	if h := len(out); h > 1 {
		now := time.Now()
		sort.SliceStable(out, func(i, j int) bool {
			return out[i].score(now) < out[j].score(now)
		})
		r := mix64(s.seq.Add(1))
		i := int(r % uint64(h))
		j := int((r >> 32) % uint64(h-1))
		if j >= i {
			j++
		}
		lead := i
		if out[j].score(now) < out[i].score(now) {
			lead = j
		}
		out[0], out[lead] = out[lead], out[0]
	}
	return append(out, down...)
}

// healthyCount is the number of currently admitted replicas.
func (s *shardSet) healthyCount() int {
	n := 0
	for _, rep := range s.replicas {
		if rep.healthy.Load() {
			n++
		}
	}
	return n
}

// newPool builds the per-shard replica sets from a validated manifest. All
// clients share one StreamTransport so the stream pool is cluster-wide.
func newPool(m *Manifest, streams *serve.StreamTransport, legs *obs.CounterVec) []*shardSet {
	sets := make([]*shardSet, len(m.Shards))
	for i, sh := range m.Shards {
		set := &shardSet{shard: i, base: sh.Base, legs: legs.With(strconv.Itoa(i)), stage: "shard" + strconv.Itoa(i) + "_leg"}
		for _, addr := range sh.Replicas {
			set.replicas = append(set.replicas, newReplica(i, addr, streams))
		}
		sets[i] = set
	}
	return sets
}

// Probe runs one health pass over every replica: /healthz within the
// configured timeout, ejecting failures and readmitting recoveries. The
// background prober calls it on every tick; it is exported so operators
// (and tests) can force a pass instead of waiting one interval out. The
// eject/readmit counters record only transitions, so a steady-state
// cluster probes silently.
func (r *Router) Probe(ctx context.Context) {
	var wg sync.WaitGroup
	for _, set := range r.sets {
		for _, rep := range set.replicas {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				pctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
				defer cancel()
				_, err := rep.client.Health(pctx)
				if err != nil {
					if rep.healthy.Swap(false) {
						r.m.ejected.Add(1)
						r.logHealth("replica ejected", rep, err)
					}
					return
				}
				if !rep.healthy.Swap(true) {
					r.m.readmitted.Add(1)
					r.logHealth("replica readmitted", rep, nil)
				}
			}(rep)
		}
	}
	wg.Wait()
}

// logHealth emits one structured health-transition record when the router
// was configured with a Logger; err is attached for ejections.
func (r *Router) logHealth(msg string, rep *replica, err error) {
	if r.cfg.Logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.Int("shard", rep.shard),
		slog.String("addr", rep.addr),
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	r.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, msg, attrs...)
}

// prober is the background health loop, stopped by Close.
func (r *Router) prober(ctx context.Context) {
	defer close(r.probeDone)
	ticker := time.NewTicker(r.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			r.Probe(ctx)
		case <-ctx.Done():
			return
		}
	}
}
