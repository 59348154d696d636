package index

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// LSH is the locality-sensitive-hashing index of §II-A: L hash tables, each
// hashing on a random sample of bit positions (bit sampling is the canonical
// LSH family for Hamming space), with optional multi-probe expansion — the
// MPLSH variant of Table V probes neighboring buckets at hash distance one
// in addition to the exact bucket.
type LSH struct {
	tables []lshTable
}

type lshTable struct {
	bits    []int // sampled bit positions forming the hash
	buckets map[uint64][]int
}

// LSHConfig configures construction.
type LSHConfig struct {
	Tables int // paper: "we use four hash tables for LSH"
	Bits   int // hash width per table
}

// DefaultLSHConfig mirrors the paper's four-table setup with a hash width
// that targets the given expected bucket size for dataset size n.
func DefaultLSHConfig(n, targetBucket int) LSHConfig {
	bits := 0
	for (n>>uint(bits)) > targetBucket && bits < 20 {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return LSHConfig{Tables: 4, Bits: bits}
}

// BuildLSH indexes ds.
func BuildLSH(ds *bitvec.Dataset, cfg LSHConfig, rng *stats.RNG) (*LSH, error) {
	if cfg.Tables <= 0 || cfg.Bits <= 0 || cfg.Bits > 63 {
		return nil, fmt.Errorf("index: LSH needs positive tables (%d) and bits in [1,63] (%d)", cfg.Tables, cfg.Bits)
	}
	if cfg.Bits > ds.Dim() {
		return nil, fmt.Errorf("index: LSH hash width %d exceeds dimensionality %d", cfg.Bits, ds.Dim())
	}
	l := &LSH{}
	for t := 0; t < cfg.Tables; t++ {
		perm := rng.Perm(ds.Dim())
		table := lshTable{bits: perm[:cfg.Bits], buckets: map[uint64][]int{}}
		for id := 0; id < ds.Len(); id++ {
			h := table.hash(ds.At(id))
			table.buckets[h] = append(table.buckets[h], id)
		}
		l.tables = append(l.tables, table)
	}
	return l, nil
}

func (t lshTable) hash(v bitvec.Vector) uint64 {
	var h uint64
	for i, b := range t.bits {
		if v.Bit(b) {
			h |= 1 << uint(i)
		}
	}
	return h
}

// Buckets returns the exact bucket of each table, then (multi-probe) the
// hash-distance-1 buckets, nearest tables first, up to maxProbes buckets.
func (l *LSH) Buckets(q bitvec.Vector, maxProbes int) [][]int {
	if maxProbes <= 0 {
		maxProbes = len(l.tables)
	}
	var out [][]int
	add := func(b []int) bool {
		if len(b) > 0 {
			out = append(out, b)
		}
		return len(out) >= maxProbes
	}
	hashes := make([]uint64, len(l.tables))
	for i, t := range l.tables {
		hashes[i] = t.hash(q)
		if add(t.buckets[hashes[i]]) {
			return out
		}
	}
	// Multi-probe: flip one hash bit at a time.
	for i, t := range l.tables {
		for b := 0; b < len(t.bits); b++ {
			if add(t.buckets[hashes[i]^(1<<uint(b))]) {
				return out
			}
		}
	}
	if len(out) == 0 {
		// Nothing hashed nearby: fall back to the first table's largest
		// bucket so the contract (>= 1 bucket) holds.
		var biggest []int
		for _, b := range l.tables[0].buckets {
			if len(b) > len(biggest) {
				biggest = b
			}
		}
		out = append(out, biggest)
	}
	return out
}

// NumBuckets returns the number of non-empty buckets across tables.
func (l *LSH) NumBuckets() int {
	n := 0
	for _, t := range l.tables {
		n += len(t.buckets)
	}
	return n
}
