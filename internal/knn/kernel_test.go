package knn

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/stats"
)

// tieHeavyDataset builds a dataset where most vectors are duplicates of a
// small pool, so nearly every distance ties and the (Dist, ID) tie-break is
// the only thing separating results.
func tieHeavyDataset(rng *stats.RNG, n, dim int) *bitvec.Dataset {
	pool := make([]bitvec.Vector, 4)
	for i := range pool {
		pool[i] = bitvec.Random(rng, dim)
	}
	ds := bitvec.NewDataset(dim)
	for i := 0; i < n; i++ {
		ds.Append(pool[rng.Uint64()%uint64(len(pool))])
	}
	return ds
}

// scanForced is ScanBatch on exactly `workers` goroutines (as far as there
// are blocks to go round), past the size threshold that would keep a
// test-sized slab on the caller alone. blockVectors 0 is the auto size.
func scanForced(ctx context.Context, ds *bitvec.Dataset, queries []bitvec.Vector, k, workers, blockVectors int) ([][]Neighbor, error) {
	return scanForcedExcluding(ctx, ds, queries, k, workers, blockVectors, nil)
}

// scanForcedExcluding is scanForced with ScanConfig.Exclude set to dead.
func scanForcedExcluding(ctx context.Context, ds *bitvec.Dataset, queries []bitvec.Vector, k, workers, blockVectors int, dead bitvec.Bitset) ([][]Neighbor, error) {
	_, block := ScanConfig{BlockVectors: blockVectors}.plan(ds, len(queries))
	workers = min(workers, (ds.Len()+block-1)/block)
	out := make([][]Neighbor, len(queries))
	if err := scanAll(ctx, ds, queries, k, workers, block, dead, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TestPlanWorkers pins the sizing rule: a slab too small to be worth a
// second goroutine stays on the caller whatever Workers asks for, a large
// one gets the workers asked for, and never more workers than blocks.
func TestPlanWorkers(t *testing.T) {
	rng := stats.NewRNG(3)
	small := bitvec.RandomDataset(rng, 4096, 64) // 32 KiB
	if w, _ := (ScanConfig{Workers: 8}).plan(small, 1); w != 1 {
		t.Errorf("32 KiB scan planned on %d workers, want 1", w)
	}
	large := bitvec.RandomDataset(rng, 1<<20, 64) // 8 MiB x 8 queries
	if w, _ := (ScanConfig{Workers: 4}).plan(large, 8); w != 4 {
		t.Errorf("64 MiB scan planned on %d workers, want 4", w)
	}
	if w, b := (ScanConfig{Workers: 4, BlockVectors: 1 << 19}).plan(large, 64); w != 2 || b != 1<<19 {
		t.Errorf("two-block scan planned on %d workers of %d-vector blocks, want 2 of %d", w, b, 1<<19)
	}
}

// TestScanMatchesLinear is the kernel-vs-oracle equivalence property the
// acceptance gate runs: over the SIMD strides (d 64/128/256), a stride the
// SIMD path does not cover (192) and non-word-aligned dims (32, 100), worker
// counts, block sizes that split vectors mid-range and leave sub-group
// tails, random and tie-heavy datasets, and k from 1 to past n (a heap that
// never fills, threshold at max throughout), the kernel must return
// byte-identical (Dist, ID) lists to the Linear oracle. It runs whichever
// inner loop the host dispatches to; -tags purego forces the portable one.
func TestScanMatchesLinear(t *testing.T) {
	t.Logf("kernel impl: %s", KernelImpl())
	rng := stats.NewRNG(4242)
	for _, dim := range []int{32, 64, 100, 128, 192, 256} {
		for _, tieHeavy := range []bool{false, true} {
			// Several blocks per worker at 8 workers; never a multiple of
			// the SIMD group.
			var ds *bitvec.Dataset
			n := 8192 + int(rng.Uint64()%1000)
			if n%simdGroup == 0 {
				n++
			}
			if tieHeavy {
				ds = tieHeavyDataset(rng, n, dim)
			} else {
				ds = bitvec.RandomDataset(rng, n, dim)
			}
			for _, workers := range []int{1, 2, 8} {
				for _, block := range []int{0, 7, 256} {
					for _, k := range []int{1, 5, n + 10} {
						q := bitvec.Random(rng, dim)
						want := Linear(ds, q, k)
						got, err := Scan(ds, q, k, ScanConfig{BlockVectors: block})
						if workers > 1 && err == nil {
							var batch [][]Neighbor
							if batch, err = scanForced(context.Background(), ds, []bitvec.Vector{q}, k, workers, block); err == nil {
								got = batch[0]
							}
						}
						if err != nil {
							t.Fatalf("dim=%d workers=%d block=%d k=%d: %v", dim, workers, block, k, err)
						}
						if !equalNeighbors(got, want) {
							t.Fatalf("dim=%d tie=%v workers=%d block=%d k=%d: kernel diverged from Linear\n got %v\nwant %v",
								dim, tieHeavy, workers, block, k, got, want)
						}
					}
				}
			}
		}
	}
}

// TestScanBatchMatchesLinear drives the one batch loop nest across batch
// sizes below, at and far above the worker count — and, where the SIMD tile
// runs, batches it covers exactly (4, 8, 64), with one or three queries left
// over (5, 7) and too small for it (1, 3) — on random and tie-heavy data,
// against per-query Linear.
func TestScanBatchMatchesLinear(t *testing.T) {
	t.Logf("kernel impl: %s", KernelImpl())
	rng := stats.NewRNG(77)
	for _, dim := range []int{64, 100, 128, 192, 256} {
		for _, tieHeavy := range []bool{false, true} {
			ds := bitvec.RandomDataset(rng, 5003, dim)
			if tieHeavy {
				ds = tieHeavyDataset(rng, 5003, dim)
			}
			for _, nq := range []int{1, 3, 4, 5, 7, 8, 64} {
				queries := make([]bitvec.Vector, nq)
				for i := range queries {
					queries[i] = bitvec.Random(rng, dim)
				}
				if tieHeavy {
					queries[0] = ds.At(17).Clone() // threshold 0: k exact duplicates exist
				}
				for _, workers := range []int{1, 2, 8} {
					got, err := ScanBatch(context.Background(), ds, queries, 7, ScanConfig{})
					if workers > 1 {
						got, err = scanForced(context.Background(), ds, queries, 7, workers, 0)
					}
					if err != nil {
						t.Fatalf("dim=%d nq=%d workers=%d: %v", dim, nq, workers, err)
					}
					for qi, q := range queries {
						if want := Linear(ds, q, 7); !equalNeighbors(got[qi], want) {
							t.Fatalf("dim=%d tie=%v nq=%d workers=%d query %d: kernel diverged from Linear\n got %v\nwant %v",
								dim, tieHeavy, nq, workers, qi, got[qi], want)
						}
					}
				}
			}
		}
	}
}

// prefilled returns a heap of bound k holding the given candidates.
func prefilled(k int, cands []Neighbor) *TopK {
	t := NewTopK(k)
	for _, c := range cands {
		t.Offer(c.ID, c.Dist)
	}
	return t
}

// requireSIMD skips, with the reason, a test whose subject is the SIMD path
// on a host or build that does not have one.
func requireSIMD(t testing.TB) {
	if simdScanBlock == nil {
		t.Skip("SIMD path not exercised: no AVX-512 VPOPCNTDQ on this host, not amd64, or built with -tags purego")
	}
}

// TestScanBlockSIMDMatchesPortable holds the SIMD ScanBlock to the portable
// one directly, on the cases the batch tests cannot aim at: blocks that
// start at every word offset mod 8 (no load is 64-byte aligned), every n
// around the group size, and heaps pre-filled so the threshold is 0 with
// the retained IDs below the block (nothing can enter), 0 with them above
// (ties enter on the ID tie-break), mid-range, and max (heap not full).
func TestScanBlockSIMDMatchesPortable(t *testing.T) {
	requireSIMD(t)
	rng := stats.NewRNG(99)
	const baseID = 1000
	for _, wordsPV := range []int{1, 2, 4} {
		dim := 64 * wordsPV
		for _, tieHeavy := range []bool{false, true} {
			const maxN = 200
			ds := bitvec.RandomDataset(rng, maxN+8, dim)
			if tieHeavy {
				ds = tieHeavyDataset(rng, maxN+8, dim)
			}
			q := ds.At(5).Clone()
			dup := func(ids ...int) []Neighbor { // zero-distance entries
				out := make([]Neighbor, len(ids))
				for i, id := range ids {
					out[i] = Neighbor{ID: id, Dist: 0}
				}
				return out
			}
			prefills := map[string][]Neighbor{
				"max":        nil,
				"zero-below": dup(1, 2, 3),
				"zero-above": dup(5000, 5001, 5002),
				"mid":        {{ID: 1, Dist: dim / 2}, {ID: 5000, Dist: dim/2 - 3}, {ID: 2, Dist: dim/2 - 3}},
			}
			for off := 0; off < 8; off++ {
				slab := ds.Words()[off:]
				for _, n := range []int{15, 16, 17, 31, 32, 33, 100, maxN} {
					for name, cands := range prefills {
						for _, k := range []int{3, 40} {
							want := prefilled(k, cands)
							scanBlockPortable(want, slab, wordsPV, q.Words(), baseID, n)
							direct := prefilled(k, cands)
							simdScanBlock(direct, slab, wordsPV, q.Words(), baseID, n)
							dispatched := prefilled(k, cands)
							ScanBlock(dispatched, slab, wordsPV, q.Words(), baseID, n)
							w := want.Neighbors()
							if d := direct.Neighbors(); !equalNeighbors(d, w) {
								t.Fatalf("stride=%d tie=%v off=%d n=%d prefill=%s k=%d: SIMD diverged\n got %v\nwant %v",
									wordsPV, tieHeavy, off, n, name, k, d, w)
							}
							if d := dispatched.Neighbors(); !equalNeighbors(d, w) {
								t.Fatalf("stride=%d tie=%v off=%d n=%d prefill=%s k=%d: ScanBlock diverged\n got %v\nwant %v",
									wordsPV, tieHeavy, off, n, name, k, d, w)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzScanBlockSIMDvsPortable: an arbitrary slab, stride, query, pre-filled
// heap and exclusion set must leave identical TopK contents on both paths.
func FuzzScanBlockSIMDvsPortable(f *testing.F) {
	requireSIMD(f)
	f.Add([]byte("seed"), uint8(0), uint8(4), uint8(0), uint16(0), []byte(nil))
	f.Add(make([]byte, 4096), uint8(1), uint8(1), uint8(3), uint16(7), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0xff, 0, 0xaa, 0x55, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(2), uint8(200), uint8(5), uint16(65535), []byte{0x55, 0xaa})
	f.Fuzz(func(t *testing.T, data []byte, stride, k, off uint8, pre uint16, deadBytes []byte) {
		wordsPV := []int{1, 2, 4}[int(stride)%3]
		// Words from the fuzz bytes, cycled up to a few groups plus a tail.
		words := make([]uint64, 8+wordsPV*(3*simdGroup+5))
		for i := range words {
			for b := 0; b < 8 && len(data) > 0; b++ {
				words[i] |= uint64(data[(i*8+b)%len(data)]) << (8 * b)
			}
		}
		qw := words[:wordsPV]
		slab := words[int(off)%8:]
		n := len(slab) / wordsPV
		kk := int(k)%48 + 1
		// pre picks how many candidates are already retained and where their
		// IDs and distances sit relative to the block's.
		var cands []Neighbor
		for i := 0; i < int(pre)%64; i++ {
			cands = append(cands, Neighbor{ID: (i * int(pre)) % (2 * n), Dist: (i * 7) % (64*wordsPV + 1)})
		}
		baseID := n / 2
		// The set is read from baseID on, so its first bits land on the
		// block; IDs past its end (an empty one included) are not in it.
		dead := bitsetFromBytes(deadBytes, baseID)
		want := prefilled(kk, cands)
		want.Exclude(dead)
		scanBlockPortable(want, slab, wordsPV, qw, baseID, n)
		got := prefilled(kk, cands)
		got.Exclude(dead)
		ScanBlock(got, slab, wordsPV, qw, baseID, n)
		if g, w := got.Neighbors(), want.Neighbors(); !equalNeighbors(g, w) {
			t.Fatalf("stride=%d k=%d off=%d pre=%d n=%d dead=%x: SIMD diverged\n got %v\nwant %v", wordsPV, kk, off%8, pre, n, deadBytes, g, w)
		}
	})
}

// tileQuery is one query of a tile test: its words and its heap's bound and
// pre-filled candidates.
type tileQuery struct {
	qw    []uint64
	k     int
	cands []Neighbor
}

// checkTile runs qs through the SIMD tile of their width and each through
// the portable loop, every heap refusing dead, and fails on any difference.
func checkTile(t *testing.T, qs []tileQuery, slab []uint64, wordsPV, baseID, n int, dead bitvec.Bitset, what string) {
	t.Helper()
	tiled := make([]TopK, len(qs))
	qws := make([][]uint64, len(qs))
	for j, q := range qs {
		tiled[j] = *prefilled(q.k, q.cands)
		tiled[j].Exclude(dead)
		qws[j] = q.qw
	}
	simdScanTile(tiled, slab, wordsPV, qws, baseID, n)
	for j, q := range qs {
		want := prefilled(q.k, q.cands)
		want.Exclude(dead)
		scanBlockPortable(want, slab, wordsPV, q.qw, baseID, n)
		if g, w := tiled[j].Neighbors(), want.Neighbors(); !equalNeighbors(g, w) {
			t.Fatalf("%s width=%d query %d: tile diverged from portable\n got %v\nwant %v", what, len(qs), j, g, w)
		}
	}
}

// TestScanTileMatchesPortable holds both tile widths to as many portable
// scans on the cases a batch cannot aim at: every stride they cover, blocks
// starting at every word offset mod 8, n around the group size and past it,
// and heaps in different states at once — two that retire mid-tile, at
// different groups (each query duplicates a vector of the block and its
// heap already holds k-1 zero-distance IDs below the block, so its bound
// drops below 0 there while the others go on), empty ones whose heap fill outlasts the others' (k 17
// and 40) or is one vector long, ones whose zero-distance ties enter on the
// ID tie-break, one mid-range — with and without an exclusion set. The
// eight-wide tile also runs them rotated by four, so each state sits in a
// register-held and, at stride 4, in a memory-read query slot.
func TestScanTileMatchesPortable(t *testing.T) {
	requireSIMD(t)
	rng := stats.NewRNG(123)
	const baseID, maxN = 1000, 200
	for _, wordsPV := range []int{1, 2, 4} {
		dim := 64 * wordsPV
		for _, tieHeavy := range []bool{false, true} {
			ds := bitvec.RandomDataset(rng, maxN+8, dim)
			if tieHeavy {
				ds = tieHeavyDataset(rng, maxN+8, dim)
			}
			random := bitvec.Random(rng, dim).Words()
			random2 := bitvec.Random(rng, dim).Words()
			for off := 0; off < 8; off++ {
				words := ds.Words()[off:]
				vec := func(i int) []uint64 { return words[i*wordsPV : (i+1)*wordsPV] }
				for _, n := range []int{15, 16, 17, 31, 33, maxN} {
					dup := n - n/3 - 1 // past the empty heap's fill of 17
					var dead bitvec.Bitset
					for i := 1; i < n; i += 5 {
						dead = dead.Add(baseID+i, 0)
					}
					zeroAbove := []Neighbor{{5000, 0}, {5001, 0}, {5002, 0}}
					qs := []tileQuery{
						{qw: vec(dup), k: 4, cands: []Neighbor{{1, 0}, {2, 0}, {3, 0}, {4, 1}}},
						{qw: random, k: 17},
						{qw: vec(5), k: 3, cands: zeroAbove},
						{qw: random, k: 3, cands: []Neighbor{{1, dim / 2}, {5000, dim/2 - 3}, {2, dim/2 - 3}}},
						{qw: vec(n / 2), k: 1},
						{qw: random2, k: 40},
						{qw: vec(n - 1), k: 3, cands: zeroAbove},
						{qw: vec(dup / 2), k: 2, cands: []Neighbor{{1, 0}, {4, 1}}},
					}
					rotated := append(append([]tileQuery{}, qs[tileNarrow:]...), qs[:tileNarrow]...)
					// Every bound 0 from the start: only the block's own
					// vectors, near its end, can still enter.
					tight := make([]tileQuery, tileQueries)
					for j := range tight {
						tight[j] = tileQuery{qw: vec(n - 1 - 2*j), k: 3, cands: zeroAbove}
					}
					for _, d := range []bitvec.Bitset{nil, dead} {
						what := fmt.Sprintf("stride=%d tie=%v off=%d n=%d dead=%v", wordsPV, tieHeavy, off, n, d != nil)
						checkTile(t, qs[:tileNarrow], words, wordsPV, baseID, n, d, what)
						checkTile(t, qs, words, wordsPV, baseID, n, d, what)
						checkTile(t, rotated, words, wordsPV, baseID, n, d, what+" rotated")
						checkTile(t, tight[:tileNarrow], words, wordsPV, baseID, n, d, what+" tight")
						checkTile(t, tight, words, wordsPV, baseID, n, d, what+" tight")
					}
					if n == maxN {
						// The retiring queries did retire.
						for _, j := range []int{0, 7} {
							r := prefilled(qs[j].k, qs[j].cands)
							scanBlockPortable(r, words, wordsPV, qs[j].qw, baseID, n)
							if b := r.bound(baseID + n); b >= 0 {
								t.Fatalf("stride=%d off=%d: query %d's bound after the block is %d, want < 0", wordsPV, off, j, b)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzScanTileVsPortable: eight arbitrary queries, each with its own k and
// pre-filled heap, and one exclusion set over an arbitrary slab must leave
// the heaps the eight-wide tile fills, and those the four-wide tile fills
// for the first four, identical to portable scans.
func FuzzScanTileVsPortable(f *testing.F) {
	requireSIMD(f)
	f.Add([]byte("seed"), uint8(0), uint8(4), uint8(0), uint16(0), []byte(nil))
	f.Add(make([]byte, 4096), uint8(1), uint8(1), uint8(3), uint16(7), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0xff, 0, 0xaa, 0x55, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(2), uint8(200), uint8(5), uint16(65535), []byte{0x55, 0xaa})
	f.Fuzz(func(t *testing.T, data []byte, stride, k, off uint8, pre uint16, deadBytes []byte) {
		wordsPV := []int{1, 2, 4}[int(stride)%3]
		// Words from the fuzz bytes, cycled: the eight queries, then a slab
		// of a few groups plus a tail.
		words := make([]uint64, tileQueries*wordsPV+8+wordsPV*(4*simdGroup+5))
		for i := range words {
			for b := 0; b < 8 && len(data) > 0; b++ {
				words[i] |= uint64(data[(i*8+b)%len(data)]) << (8 * b)
			}
		}
		slab := words[tileQueries*wordsPV+int(off)%8:]
		n := len(slab) / wordsPV
		baseID := n / 2
		dead := bitsetFromBytes(deadBytes, baseID)
		qs := make([]tileQuery, tileQueries)
		for j := range qs {
			qs[j].qw = words[j*wordsPV : (j+1)*wordsPV]
			qs[j].k = (int(k)+13*j)%48 + 1
			p := int(pre) * (j + 1)
			for i := 0; i < p%64; i++ {
				qs[j].cands = append(qs[j].cands, Neighbor{ID: (i * p) % (2 * n), Dist: (i*7 + j) % (64*wordsPV + 1)})
			}
		}
		what := fmt.Sprintf("stride=%d k=%d off=%d pre=%d n=%d dead=%x", wordsPV, k, off%8, pre, n, deadBytes)
		checkTile(t, qs[:tileNarrow], slab, wordsPV, baseID, n, dead, what)
		checkTile(t, qs, slab, wordsPV, baseID, n, dead, what)
	})
}

// TestScanBatchSizesMatchLinear sweeps the batch size from 1 to 17 queries,
// so every way scanQueries splits a batch runs on the SIMD host — 8, 8+4,
// 8+1..3, 8+4+1..3, 4+1..3 and 1..3 alone, twice over at 16 and 17 — at
// every stride the tile covers and one it does not (d = 100): through
// ScanBatch against Linear, with an exclusion set against Linear over the
// survivors, and through scanQueries into heaps seeded as a live delta's is
// (some not), excluding too, against a brute-force pass.
func TestScanBatchSizesMatchLinear(t *testing.T) {
	t.Logf("kernel impl: %s", KernelImpl())
	rng := stats.NewRNG(1717)
	const n, k, block = 1500, 9, 512
	ctx := context.Background()
	for _, dim := range []int{64, 100, 128, 256} {
		ds := bitvec.RandomDataset(rng, n, dim)
		var dead bitvec.Bitset
		for i := 0; i < n; i++ {
			if i%7 == 3 || (i >= 600 && i < 700) {
				dead = dead.Add(i, n)
			}
		}
		all := make([]bitvec.Vector, 17)
		for i := range all {
			all[i] = bitvec.Random(rng, dim)
		}
		all[2] = ds.At(40).Clone() // a live vector: distance 0 enters
		all[11] = ds.At(3).Clone() // a dead one: its distance 0 must not
		for nq := 1; nq <= len(all); nq++ {
			queries := all[:nq]
			got, err := ScanBatch(ctx, ds, queries, k, ScanConfig{BlockVectors: block})
			if err != nil {
				t.Fatal(err)
			}
			gotEx, err := ScanBatch(ctx, ds, queries, k, ScanConfig{BlockVectors: block, Exclude: dead})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				if want := Linear(ds, q, k); !equalNeighbors(got[qi], want) {
					t.Fatalf("d=%d nq=%d query %d: diverged from Linear\n got %v\nwant %v", dim, nq, qi, got[qi], want)
				}
				if want := linearOverSurvivors(ds, dead, q, k); !equalNeighbors(gotEx[qi], want) {
					t.Fatalf("d=%d nq=%d query %d excluding: diverged from Linear over survivors\n got %v\nwant %v", dim, nq, qi, gotEx[qi], want)
				}
			}

			// Seeded: query qi's seed, if any, is its survivors' 2k-th
			// neighbor or a tie at distance 0 ordering after every ID.
			heaps := make([]TopK, nq)
			qws := make([][]uint64, nq)
			seeds := make([]*Neighbor, nq)
			for qi, q := range queries {
				heaps[qi].Reset(k, dead)
				qws[qi] = q.Words()
				switch qi % 3 {
				case 1:
					s := linearOverSurvivors(ds, dead, q, 2*k)[2*k-1]
					seeds[qi] = &Neighbor{ID: -1 - s.ID, Dist: s.Dist}
				case 2:
					seeds[qi] = &Neighbor{ID: n, Dist: 0}
				}
				if seeds[qi] != nil {
					heaps[qi].Seed(*seeds[qi])
				}
			}
			scanQueries(heaps, ds.Words(), bitvec.WordsFor(dim), qws, 0, n)
			for qi, q := range queries {
				var want []Neighbor
				for i := 0; i < n; i++ {
					c := Neighbor{ID: i, Dist: ds.At(i).Hamming(q)}
					if !dead.Has(i) && (seeds[qi] == nil || c.Less(*seeds[qi])) {
						want = append(want, c)
					}
				}
				SortNeighbors(want)
				want = want[:min(k, len(want))]
				if g := heaps[qi].Neighbors(); !equalNeighbors(g, want) {
					t.Fatalf("d=%d nq=%d query %d seed %v: diverged from the brute-force pass\n got %v\nwant %v", dim, nq, qi, seeds[qi], g, want)
				}
			}
		}
	}
}

// TestScanSteadyStateAllocs is the allocation ceiling: once the scratch pool
// is warm a scan allocates the result lists it returns (one per query, plus
// the batch's outer slice) and, when it shares the slab out and finds too few
// helpers polling, one goroutine per helper it starts.
func TestScanSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	rng := stats.NewRNG(12)
	ds := bitvec.RandomDataset(rng, 6000, 128)
	queries := make([]bitvec.Vector, 8)
	for i := range queries {
		queries[i] = bitvec.Random(rng, 128)
	}
	ctx := context.Background()
	if got := testing.AllocsPerRun(50, func() {
		if _, err := Scan(ds, queries[0], 10, ScanConfig{}); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("Scan allocates %.0f objects per call, want <= 1", got)
	}
	if got, want := testing.AllocsPerRun(50, func() {
		if _, err := ScanBatch(ctx, ds, queries, 10, ScanConfig{}); err != nil {
			t.Fatal(err)
		}
	}), len(queries)+1; got > float64(want) {
		t.Errorf("ScanBatch allocates %.0f objects per call, want <= %d", got, want)
	}
	// Three workers over a dozen blocks, so every worker gets some; an
	// exclusion set adds nothing.
	const workers, block = 3, 512
	out := make([][]Neighbor, len(queries))
	dead := bitvec.Bitset(nil).With(3, ds.Len())
	if got, want := testing.AllocsPerRun(50, func() {
		if err := scanAll(ctx, ds, queries, 10, workers, block, dead, out); err != nil {
			t.Fatal(err)
		}
	}), len(queries)+workers; got > float64(want) {
		t.Errorf("scanAll on %d workers allocates %.0f objects per call, want <= %d", workers, got, want)
	}
}

// TestScanTileSteadyStateAllocs is TestScanSteadyStateAllocs's batch ceiling
// at the tile's other strides (d=64, d=256; d=128 is there): its query
// words, bounds and masks live on the stack, so an 8-query batch allocates
// its result lists and the outer slice and nothing else.
func TestScanTileSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	rng := stats.NewRNG(13)
	for _, dim := range []int{64, 256} {
		ds := bitvec.RandomDataset(rng, 6000, dim)
		queries := make([]bitvec.Vector, 8)
		for i := range queries {
			queries[i] = bitvec.Random(rng, dim)
		}
		if got, want := testing.AllocsPerRun(50, func() {
			if _, err := ScanBatch(context.Background(), ds, queries, 10, ScanConfig{}); err != nil {
				t.Fatal(err)
			}
		}), len(queries)+1; got > float64(want) {
			t.Errorf("d=%d: ScanBatch allocates %.0f objects per call, want <= %d", dim, got, want)
		}
	}
}

// TestBatchBadK is the process-survival regression: ScanBatch and Scan with
// k <= 0 must return aperr.ErrBadK from the calling goroutine — the old
// pass-through to Linear panicked inside a worker goroutine and took the
// whole process (apserve included) down.
func TestBatchBadK(t *testing.T) {
	rng := stats.NewRNG(5)
	ds := bitvec.RandomDataset(rng, 5000, 64)
	queries := []bitvec.Vector{bitvec.Random(rng, 64), bitvec.Random(rng, 64)}
	for _, k := range []int{0, -1, -100} {
		for _, workers := range []int{1, 4} {
			if _, err := ScanBatch(context.Background(), ds, queries, k, ScanConfig{Workers: workers}); !errors.Is(err, aperr.ErrBadK) {
				t.Errorf("ScanBatch(k=%d, workers=%d) err = %v, want ErrBadK", k, workers, err)
			}
		}
		if _, err := Scan(ds, queries[0], k, ScanConfig{}); !errors.Is(err, aperr.ErrBadK) {
			t.Errorf("Scan(k=%d) err = %v, want ErrBadK", k, err)
		}
	}
}

func TestScanDimMismatch(t *testing.T) {
	rng := stats.NewRNG(6)
	ds := bitvec.RandomDataset(rng, 100, 64)
	q32 := bitvec.Random(rng, 32)
	if _, err := Scan(ds, q32, 3, ScanConfig{}); !errors.Is(err, aperr.ErrDimMismatch) {
		t.Errorf("Scan dim mismatch err = %v, want ErrDimMismatch", err)
	}
	queries := []bitvec.Vector{bitvec.Random(rng, 64), q32}
	if _, err := ScanBatch(context.Background(), ds, queries, 3, ScanConfig{}); !errors.Is(err, aperr.ErrDimMismatch) {
		t.Errorf("ScanBatch dim mismatch err = %v, want ErrDimMismatch", err)
	}
}

func TestScanEmptyInputs(t *testing.T) {
	rng := stats.NewRNG(7)
	ds := bitvec.NewDataset(32)
	got, err := Scan(ds, bitvec.Random(rng, 32), 3, ScanConfig{})
	if err != nil || len(got) != 0 {
		t.Errorf("Scan over empty dataset = %v, %v; want empty, nil", got, err)
	}
	out, err := ScanBatch(context.Background(), ds, nil, 3, ScanConfig{})
	if err != nil || len(out) != 0 {
		t.Errorf("ScanBatch with no queries = %v, %v; want empty, nil", out, err)
	}
	full := bitvec.RandomDataset(rng, 10, 32)
	out, err = ScanBatch(context.Background(), full, nil, 3, ScanConfig{Workers: 4})
	if err != nil || len(out) != 0 {
		t.Errorf("ScanBatch no queries over data = %v, %v; want empty, nil", out, err)
	}
}

func TestScanBatchCanceled(t *testing.T) {
	rng := stats.NewRNG(8)
	ds := bitvec.RandomDataset(rng, 5000, 64)
	queries := make([]bitvec.Vector, 4)
	for i := range queries {
		queries[i] = bitvec.Random(rng, 64)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Inline on the caller, and shared out across goroutines.
	if _, err := ScanBatch(ctx, ds, queries, 3, ScanConfig{}); !errors.Is(err, aperr.ErrCanceled) {
		t.Errorf("ScanBatch on canceled ctx err = %v, want ErrCanceled", err)
	}
	for _, workers := range []int{2, 16} {
		if _, err := scanForced(ctx, ds, queries, 3, workers, 256); !errors.Is(err, aperr.ErrCanceled) {
			t.Errorf("scan on %d workers on canceled ctx err = %v, want ErrCanceled", workers, err)
		}
	}
}

// TestTopKAgainstOracle: the accumulator alone, fed in slab order, matches
// the full-sort oracle including ID ties at the cut boundary.
func TestTopKAgainstOracle(t *testing.T) {
	rng := stats.NewRNG(10)
	for trial := 0; trial < 100; trial++ {
		n := int(rng.Uint64()%50) + 1
		k := int(rng.Uint64()%12) + 1
		all := make([]Neighbor, n)
		tk := NewTopK(k)
		for i := 0; i < n; i++ {
			d := int(rng.Uint64() % 5) // heavy ties
			all[i] = Neighbor{ID: i, Dist: d}
			tk.Offer(i, d)
		}
		SortNeighbors(all)
		want := all
		if k < len(want) {
			want = want[:k]
		}
		if got := tk.Neighbors(); !equalNeighbors(got, want) {
			t.Fatalf("trial %d n=%d k=%d: TopK = %v, want %v", trial, n, k, got, want)
		}
	}
}

// TestTopKKeyDomain: the heap's one-integer key orders (Dist, ID) only for
// IDs in [0, 2^40) and distances in [0, 2^24). Offer panics on a candidate
// outside it — a negative ID above all, which would wrap to the largest key
// — and the entry points refuse a dataset wide enough to produce one.
func TestTopKKeyDomain(t *testing.T) {
	for _, c := range []Neighbor{{ID: -1}, {ID: 1 << keyIDBits}, {Dist: 1 << keyDistBits}, {Dist: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Offer(%d, %d) outside the key's domain did not panic", c.ID, c.Dist)
				}
			}()
			NewTopK(3).Offer(c.ID, c.Dist)
		}()
	}
	edge := NewTopK(3)
	edge.Offer(1<<keyIDBits-1, 1<<keyDistBits-1)
	edge.Offer(0, 1<<keyDistBits-1)
	if got := edge.Neighbors(); !equalNeighbors(got, []Neighbor{{0, 1<<keyDistBits - 1}, {1<<keyIDBits - 1, 1<<keyDistBits - 1}}) {
		t.Errorf("largest keys ordered %v", got)
	}
	wide := bitvec.NewDataset(1 << keyDistBits)
	wide.Append(bitvec.New(1 << keyDistBits))
	q := bitvec.New(1 << keyDistBits)
	if _, err := Scan(wide, q, 1, ScanConfig{}); err == nil {
		t.Error("Scan accepted vectors whose distances can reach 2^24")
	}
	if _, err := ScanBatch(context.Background(), wide, []bitvec.Vector{q}, 1, ScanConfig{}); err == nil {
		t.Error("ScanBatch accepted vectors whose distances can reach 2^24")
	}
}

func TestNewTopKBadKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTopK(0) did not panic")
		}
	}()
	NewTopK(0)
}

// Benchmarks for the bench trajectory: the oracle vs the kernel at the
// acceptance point (n=100k, d=128) and the batch paths. Run with
// go test -bench 'Kernel|LinearOracle' ./internal/knn/
func benchDataset(n, dim int) (*bitvec.Dataset, bitvec.Vector) {
	rng := stats.NewRNG(31)
	return bitvec.RandomDataset(rng, n, dim), bitvec.Random(rng, dim)
}

func BenchmarkLinearOracle100k128(b *testing.B) {
	ds, q := benchDataset(100_000, 128)
	b.SetBytes(int64(ds.Len() * ds.WordsPerVector() * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Linear(ds, q, 10)
	}
}

func BenchmarkKernelScan100k128(b *testing.B) {
	ds, q := benchDataset(100_000, 128)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("Workers%d", workers), func(b *testing.B) {
			b.SetBytes(int64(ds.Len() * ds.WordsPerVector() * 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Scan(ds, q, 10, ScanConfig{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKernelBatch100k128(b *testing.B) { benchBatch(b, 100_000, 16, 10) }

// BenchmarkKernelBatch1M128 is the gated benchmark's kernel_large shape: a
// 16 MiB slab, past every private cache, 8 queries per batch.
func BenchmarkKernelBatch1M128(b *testing.B) { benchBatch(b, 1<<20, 8, 16) }

func benchBatch(b *testing.B, n, nq, k int) {
	ds, _ := benchDataset(n, 128)
	rng := stats.NewRNG(32)
	queries := make([]bitvec.Vector, nq)
	for i := range queries {
		queries[i] = bitvec.Random(rng, 128)
	}
	b.SetBytes(int64(len(queries) * ds.Len() * ds.WordsPerVector() * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScanBatch(context.Background(), ds, queries, k, ScanConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
