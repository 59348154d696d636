package main

import (
	"bytes"
	"encoding/binary"
	"math/bits"

	apknn "repro"
	"repro/internal/bitvec"
)

// rng is splitmix64. The benchmark owns its generator so that inputs depend
// on -seed alone and never on the program's own RNG (internal/stats), which
// a later change is free to alter.
type rng struct{ s uint64 }

// Streams of one seed: each input kind draws from its own generator so that
// changing how many queries a run sends never changes its dataset.
const (
	streamDataset = iota + 1
	streamQueries
	streamInserts
	streamLayers
)

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed}
	r.s = r.next() ^ (stream * 0xd6e8feb86659fd93)
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// vectors is the benchmark's own copy of a vector set: vector i occupies
// words[i*wpv:(i+1)*wpv], bit j of a vector is bit j%64 of word j/64 — the
// APDS payload layout. Every distance the checker recomputes comes from
// here, never from the program's Dataset.
type vectors struct {
	dim, wpv int
	words    []uint64
}

func genVectors(r *rng, n, dim int) *vectors {
	v := &vectors{dim: dim, wpv: (dim + 63) / 64}
	v.words = make([]uint64, 0, n*v.wpv)
	for i := 0; i < n; i++ {
		v.words = append(v.words, v.random(r)...)
	}
	return v
}

// random draws one vector's words in canonical form (tail bits zero).
func (v *vectors) random(r *rng) []uint64 {
	w := make([]uint64, v.wpv)
	for i := range w {
		w[i] = r.next()
	}
	if tail := uint(v.dim) & 63; tail != 0 {
		w[v.wpv-1] &= (1 << tail) - 1
	}
	return w
}

func (v *vectors) len() int { return len(v.words) / v.wpv }

func (v *vectors) at(i int) []uint64 { return v.words[i*v.wpv : (i+1)*v.wpv] }

// apds serializes vectors [lo, hi) in the version-1 APDS format ("APDS",
// version, dim, count, little-endian words) that apknn.ReadDataset parses.
func (v *vectors) apds(lo, hi int) []byte {
	buf := make([]byte, 20, 20+8*(hi-lo)*v.wpv)
	copy(buf, "APDS")
	binary.LittleEndian.PutUint32(buf[4:], 1)
	binary.LittleEndian.PutUint32(buf[8:], uint32(v.dim))
	binary.LittleEndian.PutUint64(buf[12:], uint64(hi-lo))
	for _, w := range v.words[lo*v.wpv : hi*v.wpv] {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// dataset hands vectors [lo, hi) to the program the way a deployment would:
// as APDS bytes through apknn.ReadDataset.
func (v *vectors) dataset(lo, hi int) (*apknn.Dataset, error) {
	return apknn.ReadDataset(bytes.NewReader(v.apds(lo, hi)))
}

// vector wraps words as the program's Vector type, which copies them.
func (v *vectors) vector(w []uint64) apknn.Vector { return bitvec.FromWords(v.dim, w) }

func hamming(a, b []uint64) int {
	d := 0
	for i, w := range a {
		d += bits.OnesCount64(w ^ b[i])
	}
	return d
}
