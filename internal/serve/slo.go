package serve

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/apstats"
	"repro/internal/obs"
)

// SLO-adaptive admission control. The static MaxInFlight cap answers the
// wrong question: the right in-flight bound for a latency target depends on
// the backend's current speed (dataset size, batch shapes, churn), so any
// fixed number either over-sheds when the backend is fast or lets the queue
// tail blow past the SLO when it is slow. The controller closes the loop
// the observability layer opened: it watches the *windowed* queue-wait p99
// (the latency cost admission directly controls — backend time is paid
// regardless) and moves the admission limit AIMD-style, cutting
// multiplicatively the moment the tail breaches the target and re-earning
// capacity additively while comfortably under it. Shedding happens at the
// admission gate with 429 and a Retry-After computed from the observed
// tail, so clients back off proportionally to how saturated the server is.

const (
	// sloTick is the control period.
	sloTick = 100 * time.Millisecond
	// sloWindowSlots × sloWindowWidth is the controller's sliding signal
	// window (~1s): long enough to see a stable p99 under load, short
	// enough to react within a ramp. The minute-scale reporting window
	// would lag the controller into oscillation.
	sloWindowSlots = 4
	sloWindowWidth = 250 * time.Millisecond
	// sloCooldown is the lockout after a multiplicative decrease: the
	// window still holds pre-cut samples for about its span, and cutting
	// again on stale evidence collapses the limit to the floor.
	sloCooldown = 500 * time.Millisecond
	// sloMinSamples gates control action: below this the windowed p99 is
	// an artifact of one or two requests, not a signal.
	sloMinSamples = 16
	// sloDecrease is the multiplicative-decrease factor (×0.7 per breach).
	sloDecreaseNum, sloDecreaseDen = 7, 10
	// sloIncreaseFrac divides the cap into the additive-increase step, so
	// recovery from a cut takes a few seconds regardless of scale.
	sloIncreaseFrac = 50
	// sloMinLimit is the limit floor: always admit something, or the
	// controller never sees fresh queue-wait samples to recover on.
	sloMinLimit = 1
	// sloHeadroom is the fraction of target below which the controller
	// considers the tail comfortable and re-earns capacity. The deadband
	// between it and the target is where the limit rests, so the held p99
	// settles in [headroom, 1.0]×target — keep it close to 1 or the
	// controller parks the tail far under the target it was asked to hold.
	sloHeadroomNum, sloHeadroomDen = 17, 20
)

// sloController runs the AIMD loop. It shares the Server's inflight/limit
// atomics: admit() reads limit and counts admissions and sheds; the
// controller goroutine is the only writer of limit.
type sloController struct {
	target   time.Duration
	limit    *atomic.Int64
	inflight *atomic.Int64
	maxLimit int64
	win      *obs.Window
	now      func() time.Time

	admitted    atomic.Int64
	shed        atomic.Int64
	observedP99 atomic.Int64
	shedRate    atomic.Uint64 // Float64bits of the smoothed shed fraction
	increases   *obs.Counter
	decreases   *obs.Counter

	stop chan struct{}
	done chan struct{}
}

// newSLOController builds the controller and registers its apknn_slo_*
// series on set: the same atomics the "serving.slo" stats block reads.
func newSLOController(target time.Duration, limit, inflight *atomic.Int64, maxLimit int64, set *obs.Set) *sloController {
	c := &sloController{
		target:   target,
		limit:    limit,
		inflight: inflight,
		maxLimit: maxLimit,
		win:      obs.NewWindow(queueHist, sloWindowSlots, sloWindowWidth),
		now:      time.Now,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	set.Gauge("apknn_slo_target_p99_seconds", "Queue-wait p99 target the admission controller holds",
		func() float64 { return c.target.Seconds() })
	set.Gauge("apknn_slo_observed_p99_seconds", "Windowed queue-wait p99 at the last control tick",
		func() float64 { return time.Duration(c.observedP99.Load()).Seconds() })
	set.Gauge("apknn_slo_limit", "Current SLO-adaptive in-flight limit",
		func() float64 { return float64(c.limit.Load()) })
	set.Gauge("apknn_slo_shed_rate", "Smoothed fraction of arrivals shed with 429",
		func() float64 { return math.Float64frombits(c.shedRate.Load()) })
	c.increases = set.Counter("apknn_slo_increases_total", "Additive raises of the SLO-adaptive limit")
	c.decreases = set.Counter("apknn_slo_decreases_total", "Multiplicative cuts of the SLO-adaptive limit")
	return c
}

func (c *sloController) run() {
	defer close(c.done)
	ticker := time.NewTicker(sloTick)
	defer ticker.Stop()
	var lastAdmitted, lastShed int64
	var cooldownUntil time.Time
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		now := c.now()
		s := c.win.Snapshot(now)
		p99 := s.Quantile(0.99)
		c.observedP99.Store(p99)

		// Smooth the per-tick shed fraction so the gauge is readable and
		// the bench's shed-rate column is not tick-phase noise.
		a, sh := c.admitted.Load(), c.shed.Load()
		da, ds := a-lastAdmitted, sh-lastShed
		lastAdmitted, lastShed = a, sh
		inst := 0.0
		if da+ds > 0 {
			inst = float64(ds) / float64(da+ds)
		}
		prev := math.Float64frombits(c.shedRate.Load())
		c.shedRate.Store(math.Float64bits(0.7*prev + 0.3*inst))

		cur := c.limit.Load()
		switch {
		case s.Count >= sloMinSamples && p99 > int64(c.target):
			if now.Before(cooldownUntil) {
				continue
			}
			next := cur * sloDecreaseNum / sloDecreaseDen
			if next < sloMinLimit {
				next = sloMinLimit
			}
			if next != cur {
				c.limit.Store(next)
				c.decreases.Add(1)
			}
			cooldownUntil = now.Add(sloCooldown)
		case cur < c.maxLimit && (s.Count < sloMinSamples ||
			p99 < int64(c.target)*sloHeadroomNum/sloHeadroomDen):
			step := c.maxLimit / sloIncreaseFrac
			if step < 1 {
				step = 1
			}
			next := cur + step
			if next > c.maxLimit {
				next = c.maxLimit
			}
			c.limit.Store(next)
			c.increases.Add(1)
		}
	}
}

func (c *sloController) close() {
	close(c.stop)
	<-c.done
}

// retryAfterSeconds computes the Retry-After a shed response carries: about
// two observed tails from now the queue the client would have joined has
// turned over, floored at the 1-second granularity the header allows.
func (c *sloController) retryAfterSeconds() int {
	wait := 2 * time.Duration(c.observedP99.Load())
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

func (c *sloController) stats() *apstats.SLOStats {
	return &apstats.SLOStats{
		TargetP99NS:   int64(c.target),
		ObservedP99NS: c.observedP99.Load(),
		Limit:         c.limit.Load(),
		InFlight:      c.inflight.Load(),
		ShedRate:      math.Float64frombits(c.shedRate.Load()),
		Increases:     c.increases.Load(),
		Decreases:     c.decreases.Load(),
	}
}
