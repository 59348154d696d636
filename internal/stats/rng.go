// Package stats provides the small statistical toolkit shared by the
// simulators and benchmark harnesses: a fast deterministic random number
// generator, summary statistics, and histogram helpers.
//
// Experiments in this repository must be reproducible run-to-run, so every
// randomized component takes an explicit *stats.RNG seeded by the caller
// instead of reaching for package-level global randomness.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on the
// splitmix64 mixing function. It is small, fast, and has no shared state,
// which makes it safe to hand one instance to each goroutine.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0, matching the contract of math/rand.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn argument must be positive")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	// Reject u1 == 0 so the logarithm is finite.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}
