// Package obs is the observability layer of the stack: lock-free
// log-bucketed latency histograms, a named-metric registry with Prometheus
// text exposition, and a lightweight per-request span recorder. Every tier
// records into it — the serve batcher's queue wait, the kernel's scan and
// merge, the WAL's append and fsync, the cluster router's per-shard legs —
// and both server binaries expose the same registry on GET /metrics and as
// quantile summaries inside /v1/stats.
//
// The histogram is built for the hot path: Record is a handful of atomic
// adds with no locks, so instrumenting a microsecond-scale scan costs well
// under a percent. Buckets are log-linear (HDR-style): 16 sub-buckets per
// power of two, giving a worst-case relative quantile error of 1/16 ≈ 6%
// across the full nanosecond-to-hours range. A histogram holds only the
// octaves it has recorded into — 128 B each, allocated by the first record
// into one — and its snapshots only the range those octaves span.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits is the log-linear resolution: 2^subBits sub-buckets per
	// power of two, bounding relative bucket width to 2^-subBits.
	subBits = 4
	// subCount is the sub-buckets per octave (16).
	subCount = 1 << subBits
	// numOctaves covers every non-negative int64 nanosecond value: values
	// below subCount get exact unit buckets (octave 0), every power of two
	// above adds one octave of subCount buckets. bits.Len64 of the largest
	// int64 is 63, so the highest octave is 63-subBits.
	numOctaves = 64 - subBits
	// numBuckets is every bucket of every octave; bucket i is sub-bucket
	// i%subCount of octave i/subCount.
	numBuckets = numOctaves * subCount
)

// bucketIndex maps a nanosecond value to its log-linear bucket. Negative
// values clamp to bucket 0 (they cannot happen from monotonic timing, but a
// histogram must never index out of range on hostile input).
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subCount {
		return int(v)
	}
	h := bits.Len64(uint64(v))     // 2^(h-1) <= v < 2^h, h >= subBits+1
	shift := uint(h - 1 - subBits) // scale the mantissa into [subCount, 2*subCount)
	return (h-subBits-1)*subCount + int(v>>shift)
}

// bucketUpper is the largest nanosecond value that maps to bucket i — the
// inclusive upper bound quantile interpolation and exposition use.
func bucketUpper(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	octave := i/subCount - 1 // octaves above the exact range
	mantissa := int64(i%subCount + subCount)
	return (mantissa+1)<<uint(octave) - 1
}

// bucketLower is the smallest nanosecond value that maps to bucket i.
func bucketLower(i int) int64 {
	if i == 0 {
		return 0
	}
	return bucketUpper(i-1) + 1
}

// Histogram is a lock-free log-bucketed latency histogram. Record is safe
// for concurrent use from any number of goroutines; Snapshot can race
// records freely and observes each one atomically (a snapshot taken mid-add
// may miss the newest record, never tear one).
type Histogram struct {
	name, help string
	octaves    [numOctaves]atomic.Pointer[octave] // nil until first recorded into
	count      atomic.Int64
	sum        atomic.Int64
	max        atomic.Int64
	minute     *Window
}

// octave is the counters of one octave's buckets.
type octave [subCount]atomic.Int64

// newHistogram builds an unregistered histogram; callers go through a
// Registry so names stay unique per process.
func newHistogram(name, help string) *Histogram {
	h := &Histogram{name: name, help: help}
	h.minute = NewWindow(h, defaultWindowSlots, defaultWindowWidth)
	return h
}

// NewUnregisteredHistogram builds a histogram outside any Registry — for
// per-instance series (e.g. one per cluster replica) whose quantiles feed
// decisions rather than the /metrics exposition.
func NewUnregisteredHistogram(name, help string) *Histogram {
	return newHistogram(name, help)
}

// Record adds one duration sample. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) { h.RecordNS(int64(d)) }

// RecordNS adds one nanosecond sample: two unconditional atomic adds, one
// load of the octave's counters and one bucket add, and a max CAS that only
// loops while the maximum is actually moving — after warmup it is a single
// load. Only the first record into an octave allocates.
func (h *Histogram) RecordNS(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := bucketIndex(ns)
	o := h.octaves[i/subCount].Load()
	if o == nil {
		o = h.touch(i / subCount)
	}
	o[i%subCount].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// touch installs octave j's counters on the first record into it. Records
// racing to touch the same octave settle on one CAS: the loser drops its
// counters and adds into the winner's, so no record is lost.
func (h *Histogram) touch(j int) *octave {
	o := new(octave)
	if h.octaves[j].CompareAndSwap(nil, o) {
		return o
	}
	return h.octaves[j].Load()
}

// touched returns the octave range [lo, hi) that has been recorded into;
// lo == hi when nothing has.
func (h *Histogram) touched() (lo, hi int) {
	for j := range h.octaves {
		if h.octaves[j].Load() != nil {
			if hi == 0 {
				lo = j
			}
			hi = j + 1
		}
	}
	return lo, hi
}

// load copies the counts of octaves lo onwards into dst, an octave per
// subCount entries; an untouched octave reads as zeros.
func (h *Histogram) load(dst []int64, lo int) {
	for j := 0; j < len(dst)/subCount; j++ {
		if o := h.octaves[lo+j].Load(); o != nil {
			for k := range o {
				dst[j*subCount+k] = o[k].Load()
			}
		}
	}
}

// Snapshot copies the histogram's current state. Snapshots are plain values:
// quantile-queryable, subtractable (Sub), safe to retain.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Name:  h.name,
		Help:  h.help,
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	// The totals are read before the counters and a record adds its bucket
	// before its count, so the buckets never hold fewer samples than Count.
	if lo, hi := h.touched(); hi > lo {
		s.Counts = make([]int64, hi*subCount)
		h.load(s.Counts[lo*subCount:], lo)
	}
	return s
}

// Snapshot is a point-in-time copy of a Histogram, detached from its atomic
// backing store. The zero value is an empty histogram. Counts[i] is bucket
// i's count; buckets past the end of Counts are empty, and a histogram's
// snapshot ends with the highest octave it has recorded into.
type Snapshot struct {
	Name   string
	Help   string
	Counts []int64
	Count  int64
	Sum    int64
	Max    int64
}

// Quantile estimates the q-quantile (q in [0,1]) in nanoseconds by linear
// interpolation inside the bucket holding the target rank. An empty
// snapshot returns 0; q outside [0,1] clamps.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is 1-based: the nearest rank, q*count rounded half up and held
	// inside [1, count], so q=1 is the largest sample and q=0 the smallest.
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := bucketLower(i), bucketUpper(i)
			if hi > s.Max && s.Max >= lo {
				hi = s.Max // the tracked max tightens the top bucket
			}
			frac := float64(rank-seen) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		seen += c
	}
	return s.Max
}

// Mean returns the mean sample in nanoseconds, 0 when empty.
func (s Snapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Summary is the compact quantile block /v1/stats reports per metric. JSON
// field names are part of the serving API.
type Summary struct {
	Count  int64 `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// Summary condenses the snapshot into the /v1/stats quantile block.
func (s Snapshot) Summary() Summary {
	return Summary{
		Count:  s.Count,
		MeanNS: s.Mean(),
		P50NS:  s.Quantile(0.50),
		P90NS:  s.Quantile(0.90),
		P99NS:  s.Quantile(0.99),
		MaxNS:  s.Max,
	}
}
