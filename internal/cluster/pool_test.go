package cluster

import (
	"testing"
	"time"
)

func newTestReplica(addr string) *replica {
	return newReplica(0, addr, nil)
}

// TestReplicaScoreDecay pins the recovery mechanic: a slow observation's
// score halves per half-life without traffic, so a once-slow replica decays
// back toward "unscored" and re-earns requests instead of being starved on
// stale evidence.
func TestReplicaScoreDecay(t *testing.T) {
	rep := newTestReplica("a")
	t0 := time.Unix(1000, 0)
	rep.observe(100*time.Millisecond, t0)
	if got := rep.score(t0); got != float64(100*time.Millisecond) {
		t.Fatalf("fresh score = %v, want %v", got, float64(100*time.Millisecond))
	}
	half := rep.score(t0.Add(scoreHalfLife))
	if want := float64(50 * time.Millisecond); half < want*0.99 || half > want*1.01 {
		t.Fatalf("score after one half-life = %v, want ~%v", half, want)
	}
	if aged := rep.score(t0.Add(100 * scoreHalfLife)); aged >= float64(time.Microsecond) {
		t.Fatalf("score after 100 half-lives = %v, want ~0 (recovered)", aged)
	}
	// EWMA: a fast sample pulls a slow score down by alpha.
	rep.observe(0, t0)
	if got, want := rep.score(t0), (1-ewmaAlpha)*float64(100*time.Millisecond); got != want {
		t.Fatalf("EWMA after fast sample = %v, want %v", got, want)
	}
}

// TestReplicaPenalty checks a transport failure scores worse than any
// answering replica, and that the penalty compounds.
func TestReplicaPenalty(t *testing.T) {
	rep := newTestReplica("a")
	t0 := time.Unix(1000, 0)
	rep.observe(time.Millisecond, t0)
	rep.penalize(t0)
	s1 := rep.score(t0)
	if s1 <= float64(time.Millisecond) {
		t.Fatalf("penalized score %v did not rise above the observed latency", s1)
	}
	rep.penalize(t0)
	if s2 := rep.score(t0); s2 <= s1 {
		t.Fatalf("second penalty %v did not compound on %v", s2, s1)
	}
}

// TestCandidatesOrder pins the attempt order: the P2C winner leads, the
// remaining healthy replicas follow score-ascending, ejected replicas come
// last, and every replica appears exactly once — the failover contract the
// scatter path depends on.
func TestCandidatesOrder(t *testing.T) {
	now := time.Now()
	fast, slow, dead := newTestReplica("fast"), newTestReplica("slow"), newTestReplica("dead")
	fast.observe(time.Millisecond, now)
	slow.observe(80*time.Millisecond, now)
	dead.healthy.Store(false)
	set := &shardSet{replicas: []*replica{dead, slow, fast}}
	for i := 0; i < 32; i++ {
		got := set.candidates()
		if len(got) != 3 {
			t.Fatalf("candidates returned %d replicas, want 3", len(got))
		}
		// With two healthy replicas P2C always samples both, so the faster
		// one must lead on every draw.
		if got[0] != fast || got[1] != slow || got[2] != dead {
			t.Fatalf("draw %d order = [%s %s %s], want [fast slow dead]",
				i, got[0].addr, got[1].addr, got[2].addr)
		}
	}
}

// TestAdaptiveHedgeDelay checks the per-replica hedge timer: silent until
// the window holds enough samples, then the windowed p99 clamped to
// [hedgeFloor, hedgeCeil].
func TestAdaptiveHedgeDelay(t *testing.T) {
	rep := newTestReplica("a")
	now := time.Now()
	for i := 0; i < hedgeMinSamples-1; i++ {
		rep.hist.Record(10 * time.Millisecond)
	}
	if d := rep.hedgeDelay(now); d != 0 {
		t.Fatalf("hedge delay %v below the sample floor, want 0 (fall back to static)", d)
	}
	rep.hist.Record(10 * time.Millisecond)
	// The window read is cached for a second on the caller's clock: the
	// twentieth sample shows once that second has passed, not before.
	if d := rep.hedgeDelay(now.Add(999 * time.Millisecond)); d != 0 {
		t.Fatalf("hedge delay %v inside the cache's second, want the cached 0", d)
	}
	d := rep.hedgeDelay(now.Add(time.Second))
	// The log-bucketed p99 overshoots by at most one sub-bucket width.
	if d < 10*time.Millisecond || d > 12*time.Millisecond {
		t.Fatalf("hedge delay %v, want ~10ms (windowed p99)", d)
	}
	// A pathologically slow window clamps to the ceiling.
	slow := newTestReplica("b")
	for i := 0; i < hedgeMinSamples; i++ {
		slow.hist.Record(30 * time.Second)
	}
	if d := slow.hedgeDelay(now); d != hedgeCeil {
		t.Fatalf("hedge delay %v, want ceiling %v", d, hedgeCeil)
	}
}
