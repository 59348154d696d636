package bitvec

import (
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestNewZero(t *testing.T) {
	v := New(100)
	if v.Dim() != 100 {
		t.Fatalf("Dim = %d, want 100", v.Dim())
	}
	if v.PopCount() != 0 {
		t.Fatalf("PopCount of zero vector = %d", v.PopCount())
	}
	for i := 0; i < 100; i++ {
		if v.Bit(i) {
			t.Fatalf("bit %d set in zero vector", i)
		}
	}
}

func TestSetGetFlip(t *testing.T) {
	v := New(130) // crosses word boundaries, non-multiple of 64
	idxs := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idxs {
		v.Set(i, true)
		if !v.Bit(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if got := v.PopCount(); got != len(idxs) {
		t.Fatalf("PopCount = %d, want %d", got, len(idxs))
	}
	for _, i := range idxs {
		v.Flip(i)
		if v.Bit(i) {
			t.Errorf("bit %d still set after Flip", i)
		}
	}
	if got := v.PopCount(); got != 0 {
		t.Fatalf("PopCount after clearing = %d, want 0", got)
	}
}

func TestParseBits(t *testing.T) {
	v, err := ParseBits("1011")
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, true}
	for i, w := range want {
		if v.Bit(i) != w {
			t.Errorf("bit %d = %v, want %v", i, v.Bit(i), w)
		}
	}
	if _, err := ParseBits("10x1"); err == nil {
		t.Error("ParseBits accepted invalid rune")
	}
	if _, err := ParseBits(""); err == nil {
		t.Error("ParseBits accepted empty string")
	}
	if _, err := ParseBits("  "); err == nil {
		t.Error("ParseBits accepted all-space string")
	}
}

func TestParseBitsIgnoresSpaces(t *testing.T) {
	a, err := ParseBits("1010 1100")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseBits("10101100")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("spaced and unspaced parse differ")
	}
}

func TestHammingKnownValues(t *testing.T) {
	a, _ := ParseBits("1011")
	b, _ := ParseBits("1001")
	if d := a.Hamming(b); d != 1 {
		t.Errorf("Hamming(1011,1001) = %d, want 1", d)
	}
	if ih := a.InvertedHamming(b); ih != 3 {
		t.Errorf("InvertedHamming = %d, want 3 (paper Fig. 3 example)", ih)
	}
	z, _ := ParseBits("0000")
	if d := z.Hamming(b); d != 2 {
		t.Errorf("Hamming(0000,1001) = %d, want 2 (paper Fig. 4 vector B)", d)
	}
}

func TestHammingPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Hamming on mismatched dims did not panic")
		}
	}()
	New(64).Hamming(New(65))
}

// Property: Hamming distance is a metric on the Boolean cube.
func TestHammingMetricProperties(t *testing.T) {
	rng := stats.NewRNG(42)
	const dim = 96
	f := func(seedA, seedB, seedC uint64) bool {
		a := Random(stats.NewRNG(seedA), dim)
		b := Random(stats.NewRNG(seedB), dim)
		c := Random(stats.NewRNG(seedC), dim)
		dab, dba := a.Hamming(b), b.Hamming(a)
		if dab != dba {
			return false // symmetry
		}
		if a.Hamming(a) != 0 {
			return false // identity
		}
		if dab < 0 || dab > dim {
			return false // bounds
		}
		return a.Hamming(c) <= dab+b.Hamming(c) // triangle inequality
	}
	cfg := &quick.Config{MaxCount: 200, Rand: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	_ = rng
}

// Property: Hamming computed via packed words equals the per-bit reference.
func TestHammingMatchesBitwiseReference(t *testing.T) {
	f := func(seedA, seedB uint64, rawDim uint16) bool {
		dim := int(rawDim)%300 + 1
		a := Random(stats.NewRNG(seedA), dim)
		b := Random(stats.NewRNG(seedB), dim)
		ref := 0
		for i := 0; i < dim; i++ {
			if a.Bit(i) != b.Bit(i) {
				ref++
			}
		}
		return a.Hamming(b) == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandomTailIsMasked(t *testing.T) {
	rng := stats.NewRNG(7)
	for _, dim := range []int{1, 7, 63, 65, 100, 127} {
		v := Random(rng, dim)
		last := v.Words()[len(v.Words())-1]
		if tail := uint(dim) & 63; tail != 0 {
			if last>>tail != 0 {
				t.Errorf("dim %d: bits beyond dim are set: %064b", dim, last)
			}
		}
		// PopCount must never exceed dim.
		if pc := v.PopCount(); pc > dim {
			t.Errorf("dim %d: PopCount %d > dim", dim, pc)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := Random(stats.NewRNG(1), 80)
	b := a.Clone()
	b.Flip(3)
	if a.Bit(3) == b.Bit(3) {
		t.Error("Clone shares storage with original")
	}
}

func TestPopCountMatchesWords(t *testing.T) {
	v := Random(stats.NewRNG(5), 256)
	want := 0
	for _, w := range v.Words() {
		want += bits.OnesCount64(w)
	}
	if got := v.PopCount(); got != want {
		t.Errorf("PopCount = %d, want %d", got, want)
	}
}

func TestStringGrouping(t *testing.T) {
	v, _ := ParseBits("101011001")
	s := v.String()
	if s != "10101100 1" {
		t.Errorf("String() = %q, want %q", s, "10101100 1")
	}
}
