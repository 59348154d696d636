package knn

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/stats"
	"repro/internal/workload"
)

// bitsetFromBytes reads b as a set: bit j of b (LSB first) is position
// first+j.
func bitsetFromBytes(b []byte, first int) bitvec.Bitset {
	var s bitvec.Bitset
	for j := 0; j < 8*len(b); j++ {
		if b[j/8]>>(j%8)&1 != 0 {
			s = s.Add(first+j, 0)
		}
	}
	return s
}

// linearOverSurvivors is the exclusion oracle: Linear over a dataset holding
// only the vectors not in dead, answered in ds's own positions. Positions
// ascend with the survivors' IDs, so the (Dist, ID) order carries over.
func linearOverSurvivors(ds *bitvec.Dataset, dead bitvec.Bitset, q bitvec.Vector, k int) []Neighbor {
	var pos []int
	for i := 0; i < ds.Len(); i++ {
		if !dead.Has(i) {
			pos = append(pos, i)
		}
	}
	if len(pos) == 0 {
		return []Neighbor{}
	}
	out := Linear(ds.Subset(pos), q, k)
	for i := range out {
		out[i].ID = pos[out[i].ID]
	}
	return out
}

// TestScanExcludeMatchesLinearOverSurvivors holds ScanBatch with an
// exclusion set to the oracle over every stride (SIMD and not), a slab of
// two blocks and a tail and one shorter than a SIMD group, one to three
// workers, uniform and tie-heavy data, k from 1 to past the survivor count,
// and the dead patterns that break an over-fetch or a heap-fill prologue:
// the nearest vectors dead, a whole block dead, fewer survivors than k,
// none. Queries include a copy of a dead vector, whose zero distance must
// not come back. It runs whichever inner loop the host dispatches to;
// -tags purego forces the portable one.
func TestScanExcludeMatchesLinearOverSurvivors(t *testing.T) {
	t.Logf("kernel impl: %s", KernelImpl())
	const block, kp = 512, 8
	rng := stats.NewRNG(2020)
	type pattern struct {
		name string
		dead func(n int) bitvec.Bitset
	}
	fill := func(n int, in func(i int) bool) bitvec.Bitset {
		s := make(bitvec.Bitset, (n+63)/64)
		for i := 0; i < n; i++ {
			if in(i) {
				s = s.Add(i, n)
			}
		}
		return s
	}
	patterns := []pattern{
		{"nil", func(n int) bitvec.Bitset { return nil }},
		{"none", func(n int) bitvec.Bitset { return fill(n, func(int) bool { return false }) }},
		{"first-k", func(n int) bitvec.Bitset { return fill(n, func(i int) bool { return i < kp }) }},
		{"every-other", func(n int) bitvec.Bitset { return fill(n, func(i int) bool { return i%2 == 0 }) }},
		{"one-block", func(n int) bitvec.Bitset { return fill(n, func(i int) bool { return i/block == 1 || n < block }) }},
		{"all-but-k-1", func(n int) bitvec.Bitset { return fill(n, func(i int) bool { return i%3 != 1 || i/3 >= kp-1 }) }},
		{"all", func(n int) bitvec.Bitset { return fill(n, func(int) bool { return true }) }},
	}
	for _, dim := range []int{32, 64, 128, 192, 256} {
		for _, n := range []int{simdGroup - 3, 2*block + 37} {
			for _, tieHeavy := range []bool{false, true} {
				ds := bitvec.RandomDataset(rng, n, dim)
				if tieHeavy {
					ds = workload.TieHeavy(rng, n, dim, block)
				}
				for _, p := range patterns {
					dead := p.dead(n)
					survivors := 0
					for i := 0; i < n; i++ {
						if !dead.Has(i) {
							survivors++
						}
					}
					queries := []bitvec.Vector{bitvec.Random(rng, dim), ds.At(0).Clone(), ds.At(n - 1).Clone()}
					for _, k := range []int{1, kp, max(survivors, 1), survivors + 5} {
						for _, workers := range []int{1, 2, 3} {
							got, err := scanForcedExcluding(context.Background(), ds, queries, k, workers, block, dead)
							if workers == 1 {
								got, err = ScanBatch(context.Background(), ds, queries, k, ScanConfig{BlockVectors: block, Exclude: dead})
							}
							if err != nil {
								t.Fatalf("dim=%d n=%d %s k=%d workers=%d: %v", dim, n, p.name, k, workers, err)
							}
							for qi, q := range queries {
								if want := linearOverSurvivors(ds, dead, q, k); !equalNeighbors(got[qi], want) {
									t.Fatalf("dim=%d n=%d tie=%v dead=%s k=%d workers=%d query %d: diverged from Linear over survivors\n got %v\nwant %v",
										dim, n, tieHeavy, p.name, k, workers, qi, got[qi], want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestScanExcludeDefaultBlocks is the same property at the kernel's own
// block size, single query through Scan: a d=64 slab of two 64 KiB blocks
// and a tail whose first block is dead but for one vector.
func TestScanExcludeDefaultBlocks(t *testing.T) {
	rng := stats.NewRNG(2021)
	const dim = 64
	block := ScanConfig{}.effectiveBlock(bitvec.WordsFor(dim))
	n := 2*block + 100
	ds := bitvec.RandomDataset(rng, n, dim)
	var dead bitvec.Bitset
	for i := 0; i < block; i++ {
		if i != 77 {
			dead = dead.Add(i, n)
		}
	}
	for _, k := range []int{1, 8, 600} {
		q := ds.At(5).Clone()
		got, err := Scan(ds, q, k, ScanConfig{Exclude: dead})
		if err != nil {
			t.Fatal(err)
		}
		if want := linearOverSurvivors(ds, dead, q, k); !equalNeighbors(got, want) {
			t.Fatalf("k=%d: diverged from Linear over survivors\n got %v\nwant %v", k, got, want)
		}
	}
}

// TestScanExcludeShortSetRefused: a set that does not cover the dataset was
// built for another one; both entry points refuse it before scanning.
func TestScanExcludeShortSetRefused(t *testing.T) {
	rng := stats.NewRNG(5)
	ds := bitvec.RandomDataset(rng, 130, 64)
	q := bitvec.Random(rng, 64)
	short := make(bitvec.Bitset, 2) // 128 positions
	if _, err := Scan(ds, q, 3, ScanConfig{Exclude: short}); err == nil {
		t.Error("Scan accepted an exclusion set shorter than the dataset")
	}
	if _, err := ScanBatch(context.Background(), ds, []bitvec.Vector{q}, 3, ScanConfig{Exclude: short}); err == nil {
		t.Error("ScanBatch accepted an exclusion set shorter than the dataset")
	}
	if _, err := Scan(ds, q, 3, ScanConfig{Exclude: make(bitvec.Bitset, 3)}); err != nil {
		t.Errorf("Scan refused a covering exclusion set: %v", err)
	}
}

// TestScanBlockExcludeSkips: ScanBlock over a heap that refuses IDs keeps
// every other vector at its true distance, on a stride the SIMD loop covers
// and one it does not, with a base ID that is not the set's origin.
func TestScanBlockExcludeSkips(t *testing.T) {
	rng := stats.NewRNG(9)
	const baseID = 1000
	for _, dim := range []int{96, 128} {
		ds := bitvec.RandomDataset(rng, 200, dim)
		q := bitvec.Random(rng, dim)
		var dead bitvec.Bitset
		for _, id := range []int{3, 50, 199} {
			dead = dead.Add(baseID+id, 0)
		}
		tk := NewTopK(200)
		tk.Exclude(dead)
		ScanBlock(tk, ds.Words(), ds.WordsPerVector(), q.Words(), baseID, ds.Len())
		got := tk.Neighbors()
		if len(got) != 197 {
			t.Fatalf("dim=%d: excluding scan kept %d, want 197", dim, len(got))
		}
		for _, n := range got {
			if dead.Has(n.ID) {
				t.Errorf("dim=%d: excluded ID %d leaked into results", dim, n.ID)
			}
			if want := ds.Hamming(n.ID-baseID, q); n.Dist != want {
				t.Errorf("dim=%d: ID %d dist %d, want %d", dim, n.ID, n.Dist, want)
			}
		}
	}
}

// FuzzScanSeededRuns: ScanBlock into a heap with an exclusion set holding a
// long run (up to the whole block, across several words, at any bit offset)
// and, unless seedDist is 255, a seed must retain exactly the k best
// survivors that order before the seed, by a brute-force pass over the
// block. The seed's ID may be negative, as a live delta's is, or inside the
// block, where the tie-break decides. Like FuzzScanExclude it has an oracle
// on every build, purego included.
func FuzzScanSeededRuns(f *testing.F) {
	f.Add([]byte("seed"), uint8(0), uint8(8), uint8(0), uint8(200), uint8(255), int16(0), []byte(nil))
	f.Add(make([]byte, 512), uint8(1), uint8(3), uint8(10), uint8(255), uint8(0), int16(-5), []byte{0x0f})
	f.Add([]byte{0xff, 0, 0xaa, 0x55, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3), uint8(40), uint8(77), uint8(90), uint8(30), int16(300), []byte{0xaa, 0x55})
	// Every distance ties the seed's: on the portable loop, below the block
	// (nothing enters) and, on the SIMD one, mid-block (the IDs below it do).
	f.Add(make([]byte, 64), uint8(2), uint8(5), uint8(0), uint8(0), uint8(0), int16(-5), []byte(nil))
	f.Add(make([]byte, 64), uint8(0), uint8(200), uint8(0), uint8(0), uint8(0), int16(100), []byte(nil))
	f.Fuzz(func(t *testing.T, data []byte, stride, k, runLo, runLen, seedDist uint8, seedID int16, deadBytes []byte) {
		wordsPV := int(stride)%5 + 1 // 3 and 5 take the portable loops on every host
		const n = 40*simdGroup + 7
		words := make([]uint64, (n+1)*wordsPV)
		for i := range words {
			for b := 0; b < 8 && len(data) > 0; b++ {
				words[i] |= uint64(data[(i*8+b)%len(data)]) << (8 * b)
			}
		}
		qw, slab := words[:wordsPV], words[wordsPV:]
		// Positions are IDs; the block starts mid-word so a run's ends do too.
		baseID := 64 + int(runLo)%64
		dead := bitsetFromBytes(deadBytes, baseID)
		lo := int(runLo) * n / 256
		for i := lo; i < min(n, lo+int(runLen)*n/255); i++ {
			dead = dead.Add(baseID+i, 0)
		}
		kk := int(k)%(n+8) + 1
		tk := NewTopK(kk)
		tk.Exclude(dead)
		seeded := seedDist != 255
		seed := Neighbor{ID: baseID + int(seedID), Dist: int(seedDist) % (64*wordsPV + 2)}
		if seeded {
			tk.Seed(seed)
		}
		ScanBlock(tk, slab, wordsPV, qw, baseID, n)
		var want []Neighbor
		for i := 0; i < n; i++ {
			c := Neighbor{ID: baseID + i, Dist: hamming(slab[i*wordsPV:(i+1)*wordsPV], qw)}
			if !dead.Has(c.ID) && (!seeded || c.Less(seed)) {
				want = append(want, c)
			}
		}
		SortNeighbors(want)
		want = want[:min(kk, len(want))]
		if got := tk.Neighbors(); !equalNeighbors(got, want) {
			t.Fatalf("stride=%d k=%d run=[%d,+%d) seeded=%v seed=%v dead=%x: diverged from the brute-force pass\n got %v\nwant %v",
				wordsPV, kk, lo, int(runLen)*n/255, seeded, seed, deadBytes, got, want)
		}
	})
}

// FuzzScanExclude: an arbitrary dataset, stride, k and exclusion set through
// ScanBatch must equal Linear over the survivors. Unlike the SIMD-vs-portable
// target it has an oracle on every build, purego included.
func FuzzScanExclude(f *testing.F) {
	f.Add([]byte("seed"), uint8(0), uint8(4), uint8(1), []byte{0x01})
	f.Add(make([]byte, 1024), uint8(1), uint8(1), uint8(2), []byte{0xff, 0xff, 0xff})
	f.Add([]byte{0xff, 0, 0xaa, 0x55, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3), uint8(200), uint8(3), []byte{0xaa, 0x55, 0, 0xff})
	f.Fuzz(func(t *testing.T, data []byte, stride, k, workers uint8, deadBytes []byte) {
		wordsPV := int(stride)%5 + 1 // 3 and 5 take the portable loops on every host
		dim := 64 * wordsPV
		const n = 4*simdGroup + 5
		ds := bitvec.NewDataset(dim)
		words := make([]uint64, wordsPV)
		for i := 0; i < n+1; i++ {
			for w := range words {
				words[w] = 0
				for b := 0; b < 8 && len(data) > 0; b++ {
					words[w] |= uint64(data[((i*wordsPV+w)*8+b)%len(data)]) << (8 * b)
				}
			}
			ds.Append(bitvec.FromWords(dim, words))
		}
		q := ds.At(n).Clone()
		ds = ds.Slice(0, n)
		// Cycle the fuzzed bytes over the whole dataset: the set covers it.
		dead := make(bitvec.Bitset, (n+63)/64)
		for i := 0; i < n && len(deadBytes) > 0; i++ {
			if deadBytes[(i/8)%len(deadBytes)]>>(i%8)&1 != 0 {
				dead = dead.Add(i, n)
			}
		}
		kk := int(k)%(n+8) + 1
		got, err := scanForcedExcluding(context.Background(), ds, []bitvec.Vector{q}, kk, int(workers)%3+1, simdGroup+3, dead)
		if err != nil {
			t.Fatal(err)
		}
		if want := linearOverSurvivors(ds, dead, q, kk); !equalNeighbors(got[0], want) {
			t.Fatalf("stride=%d k=%d workers=%d dead=%s: diverged from Linear over survivors\n got %v\nwant %v",
				wordsPV, kk, int(workers)%3+1, fmt.Sprintf("%x", deadBytes), got[0], want)
		}
	})
}
