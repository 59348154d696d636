package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Windowed quantiles. A Histogram's counters are cumulative since boot,
// which is the right shape for Prometheus scrapes (the server does rate()
// math) but useless for anything that needs "p99 over the last minute"
// directly: /v1/stats consumers without a scraper, and the SLO admission
// controller that steers on the current queue-wait tail.
//
// The mechanism keeps Record untouched and lock-free: a Window owns a
// rotating ring of *cumulative boundary snapshots* of its histogram, one per
// elapsed slot of `width`. The windowed view is then
//
//	live snapshot  −  oldest boundary
//
// a bucket-wise subtraction (Snapshot.Sub), covering between (slots−1) and
// slots slot-widths of wall time. Rotation is lazy: it happens under a
// mutex on the read path (scrapes, /v1/stats, the controller tick), never
// on the record path. The one approximation this buys: samples recorded
// during a read gap longer than one slot are attributed to the catch-up
// boundary, i.e. treated as old — irrelevant in practice because every
// consumer of a Window polls it at sub-slot intervals.

// Window derives sliding-window views from a Histogram via a rotating ring
// of boundary snapshots. Safe for concurrent use; the wrapped histogram's
// Record path is never touched.
type Window struct {
	h     *Histogram
	slots int
	width time.Duration

	mu      sync.Mutex
	ring    []boundary // cumulative boundaries; newest at head
	head    int
	epoch   int64 // slot index (unix nanos / width) of the newest boundary
	started bool
}

// NewWindow wraps h in a sliding window of slots×width. The window "length"
// is nominally slots×width but, as with any ring of boundaries, the view
// covers between (slots−1)×width and slots×width of real time depending on
// the phase within the current slot.
func NewWindow(h *Histogram, slots int, width time.Duration) *Window {
	if slots < 1 {
		slots = 1
	}
	if width <= 0 {
		width = 10 * time.Second
	}
	return &Window{h: h, slots: slots, width: width, ring: make([]boundary, slots)}
}

// boundary is one cumulative ring entry: the counts of the octaves the
// histogram had recorded into, starting at bucket lo, and its sum — all
// that Sub reads of the older snapshot.
type boundary struct {
	lo     int
	counts []int64
	sum    int64
}

// boundary takes the histogram's current state as a ring entry.
func (h *Histogram) boundary() boundary {
	b := boundary{sum: h.sum.Load()}
	if lo, hi := h.touched(); hi > lo {
		b.lo, b.counts = lo*subCount, make([]int64, (hi-lo)*subCount)
		h.load(b.counts, lo)
	}
	return b
}

// rotate lazily advances the ring to now's slot. Called with mu held.
func (w *Window) rotate(now time.Time) {
	cur := now.UnixNano() / int64(w.width)
	if !w.started {
		// First observation: anchor the epoch without pushing boundaries,
		// so a young window reports everything since boot (the honest
		// answer until a full window of time has elapsed).
		w.epoch, w.started = cur, true
		return
	}
	if cur <= w.epoch {
		return
	}
	missed := cur - w.epoch
	if missed > int64(w.slots) {
		missed = int64(w.slots)
	}
	live := w.h.boundary()
	for i := int64(0); i < missed; i++ {
		w.head = (w.head + 1) % w.slots
		w.ring[w.head] = live
	}
	w.epoch = cur
}

// Snapshot returns the windowed view at `now`: the live cumulative snapshot
// minus the oldest ring boundary. Taking `now` explicitly keeps rotation
// deterministic under test; production callers pass time.Now().
func (w *Window) Snapshot(now time.Time) Snapshot {
	w.mu.Lock()
	w.rotate(now)
	oldest := w.ring[(w.head+1)%w.slots]
	w.mu.Unlock()
	live := w.h.Snapshot()
	return live.sub(live.Counts, oldest)
}

// Sub returns the samples present in s but not in o — the windowed delta
// between two cumulative snapshots of the same histogram (o taken earlier).
// Count is recomputed from the delta buckets so quantile ranks stay
// internally consistent even when the two snapshots raced concurrent
// records; negative bucket deltas (possible only under such races) clamp
// to zero. Max cannot be recovered exactly from cumulative state, so it is
// approximated as the upper bound of the highest non-empty delta bucket,
// tightened by the cumulative max when that falls inside the bucket —
// within one bucket width (≤1/subCount relative) of the true windowed max.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return s.sub(make([]int64, len(s.Counts)), boundary{counts: o.Counts, sum: o.Sum})
}

// sub is Sub against a ring boundary, writing the delta counts into dst
// (len(s.Counts); s.Counts itself when s is a private copy). The result's
// Counts end at its highest non-empty bucket.
func (s Snapshot) sub(dst []int64, o boundary) Snapshot {
	out := Snapshot{Name: s.Name, Help: s.Help}
	top := -1
	for i, d := range s.Counts {
		if j := i - o.lo; j >= 0 && j < len(o.counts) {
			d -= o.counts[j]
		}
		if d < 0 {
			d = 0
		}
		dst[i] = d
		out.Count += d
		if d > 0 {
			top = i
		}
	}
	out.Counts = dst[:top+1]
	out.Sum = s.Sum - o.sum
	if out.Sum < 0 {
		out.Sum = 0
	}
	if top >= 0 {
		out.Max = bucketUpper(top)
		if s.Max >= bucketLower(top) && s.Max < out.Max {
			out.Max = s.Max
		}
	}
	return out
}

// Default minute window: every registered histogram carries a 6×10s ring so
// /v1/stats and /metrics can answer "over the last minute" with no extra
// wiring at the record sites.
const (
	defaultWindowSlots = 6
	defaultWindowWidth = 10 * time.Second
)

// WindowSnapshot is the histogram's view over roughly the last minute.
func (h *Histogram) WindowSnapshot(now time.Time) Snapshot {
	return h.minute.Snapshot(now)
}

// windowQuantileTTL is how long a WindowQuantile answers from its cache.
// The minute window it reads moves in 10 s slots, so a value up to a second
// old describes the same tail.
const windowQuantileTTL = time.Second

// WindowQuantile is one quantile of a histogram's minute window, cached for
// readers on a per-request path: a windowed read copies every touched
// bucket, which is more than the request it would classify costs. The
// flight recorders' slow threshold and the router's adaptive hedge delay
// read through one of these; scrapes, /v1/stats and the anomaly watcher's
// ticker keep reading the window itself.
type WindowQuantile struct {
	h *Histogram
	q float64

	mu          sync.Mutex
	at          time.Time // the clock at the last read of the window; zero before the first
	ns, samples int64
}

// WindowQuantile returns a cached reader of quantile q (0..1) over the
// histogram's minute window.
func (h *Histogram) WindowQuantile(q float64) *WindowQuantile {
	return &WindowQuantile{h: h, q: q}
}

// At returns the quantile in nanoseconds and the number of samples in the
// window, recomputing both when the cached pair is a second old or more on
// the caller's clock (a clock that stepped backwards also recomputes).
func (c *WindowQuantile) At(now time.Time) (ns, samples int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if age := now.Sub(c.at); age >= windowQuantileTTL || age < 0 {
		snap := c.h.WindowSnapshot(now)
		c.ns, c.samples = snap.Quantile(c.q), snap.Count
		c.at = now
	}
	return c.ns, c.samples
}

// WindowSummaries condenses every registered histogram with at least one
// sample in its minute window into a quantile block, keyed by metric name —
// the `latency_1m` half of /v1/stats.
func (r *Registry) WindowSummaries(now time.Time) map[string]Summary {
	r.mu.RLock()
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.RUnlock()
	out := make(map[string]Summary)
	for _, h := range hists {
		s := h.WindowSnapshot(now)
		if s.Count == 0 {
			continue
		}
		out[h.name] = s.Summary()
	}
	return out
}

// WriteWindowSummary writes one windowed quantile family as a Prometheus
// summary named <name>_1m: pre-computed p50/p90/p99 over roughly the last
// minute, in seconds, plus the windowed _sum/_count.
func WriteWindowSummary(w io.Writer, name string, s Snapshot) {
	fam := name + "_1m"
	fmt.Fprintf(w, "# HELP %s quantiles of %s over roughly the last minute\n# TYPE %s summary\n",
		fam, name, fam)
	for _, q := range [...]struct {
		label string
		q     float64
	}{{"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}} {
		fmt.Fprintf(w, "%s{quantile=%q} %s\n", fam, q.label, secs(s.Quantile(q.q)))
	}
	fmt.Fprintf(w, "%s_sum %s\n", fam, secs(s.Sum))
	fmt.Fprintf(w, "%s_count %d\n", fam, s.Count)
}

// WriteWindowed appends a <name>_1m summary family for every histogram with
// samples in its minute window — called by both /metrics handlers after
// WritePrometheus.
func (r *Registry) WriteWindowed(w io.Writer, now time.Time) {
	r.mu.RLock()
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.RUnlock()
	sortHistograms(hists)
	for _, h := range hists {
		s := h.WindowSnapshot(now)
		if s.Count == 0 {
			continue
		}
		WriteWindowSummary(w, h.name, s)
	}
}
