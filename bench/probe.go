package main

import (
	"math/bits"
	"sort"
	"time"
)

// hostProbe measures how fast this machine runs at the moment: the time of
// one XOR+POPCNT pass over a fixed 256 KiB buffer, in the benchmark's own
// loop — the scan kernel's arithmetic, frozen here so that no change to the
// program moves it. It allocates nothing and starts no goroutine, so it
// shares neither collector nor scheduler work with the servers in this
// process.
//
// This box shares its cores, and its neighbours slow it by a tenth to a
// factor of two for minutes to hours (probe.go's pass takes 22.5 µs when they
// are idle and 30–50 µs when they are not; the program's latencies move with
// it). The timed loop therefore probes the host between blocks of requests
// and states every time at the reference speed: divided by how much slower
// than probeNominal the probes beside it ran.
type hostProbe struct {
	buf  []uint64
	sink int
}

const (
	probeWords     = 32 << 10 // 256 KiB: past L1, well inside the 4 MiB L2
	probesPerBurst = 8
	// probeNominal is one pass on this box with idle neighbours: the floor
	// of several thousand passes taken in quiet and in busy hours alike.
	// It only sets the scale; every comparison divides it out.
	probeNominal = 22500 * time.Nanosecond
)

func newHostProbe() *hostProbe {
	p := &hostProbe{buf: make([]uint64, probeWords)}
	r := newRNG(0, streamLayers)
	for i := range p.buf {
		p.buf[i] = r.next()
	}
	return p
}

func (p *hostProbe) pass() time.Duration {
	start := time.Now()
	ones := 0
	for i, w := range p.buf {
		ones += bits.OnesCount64(w ^ uint64(i))
	}
	p.sink += ones
	return time.Since(start)
}

// burst is the median of probesPerBurst passes: one pass can be hit by a
// collection or a timer tick, the median of eight is not.
func (p *hostProbe) burst() time.Duration {
	var t [probesPerBurst]time.Duration
	for i := range t {
		t[i] = p.pass()
	}
	sort.Slice(t[:], func(i, j int) bool { return t[i] < t[j] })
	return (t[probesPerBurst/2-1] + t[probesPerBurst/2]) / 2
}

// slowdown is how many times slower than the reference the host ran, going
// by the given bursts.
func slowdown(bursts ...time.Duration) float64 {
	sum := time.Duration(0)
	for _, b := range bursts {
		sum += b
	}
	return float64(sum) / float64(len(bursts)) / float64(probeNominal)
}
