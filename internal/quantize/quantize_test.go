package quantize

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/stats"
)

// ---- matrix kernel tests ----

func TestMatrixMul(t *testing.T) {
	a := newMatrix(2, 3)
	copy(a.a, []float64{1, 2, 3, 4, 5, 6})
	b := newMatrix(3, 2)
	copy(b.a, []float64{7, 8, 9, 10, 11, 12})
	c := a.mul(b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if math.Abs(c.a[i]-w) > 1e-12 {
			t.Errorf("mul[%d] = %v, want %v", i, c.a[i], w)
		}
	}
}

func TestMatrixTranspose(t *testing.T) {
	a := newMatrix(2, 3)
	copy(a.a, []float64{1, 2, 3, 4, 5, 6})
	at := a.transpose()
	if at.rows != 3 || at.cols != 2 || at.at(2, 1) != 6 || at.at(0, 1) != 4 {
		t.Errorf("transpose wrong: %+v", at)
	}
}

func TestJacobiEigenKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m := newMatrix(2, 2)
	copy(m.a, []float64{2, 1, 1, 2})
	vals, vecs := jacobiEigen(m)
	lo, hi := math.Min(vals[0], vals[1]), math.Max(vals[0], vals[1])
	if math.Abs(lo-1) > 1e-9 || math.Abs(hi-3) > 1e-9 {
		t.Errorf("eigenvalues = %v, want 1 and 3", vals)
	}
	// Eigenvector columns are orthonormal.
	checkOrthonormal(t, vecs)
}

func TestJacobiEigenReconstruction(t *testing.T) {
	rng := stats.NewRNG(12)
	n := 8
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.set(i, j, v)
			m.set(j, i, v)
		}
	}
	vals, vecs := jacobiEigen(m)
	// Reconstruct V diag(vals) V^T and compare.
	d := newMatrix(n, n)
	for i, v := range vals {
		d.set(i, i, v)
	}
	rec := vecs.mul(d).mul(vecs.transpose())
	for i := range m.a {
		if math.Abs(rec.a[i]-m.a[i]) > 1e-8 {
			t.Fatalf("reconstruction off at %d: %v vs %v", i, rec.a[i], m.a[i])
		}
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := stats.NewRNG(13)
	n := 6
	m := newMatrix(n, n)
	for i := range m.a {
		m.a[i] = rng.NormFloat64()
	}
	u, s, w := svd(m)
	d := newMatrix(n, n)
	for i, v := range s {
		d.set(i, i, v)
	}
	rec := u.mul(d).mul(w.transpose())
	for i := range m.a {
		if math.Abs(rec.a[i]-m.a[i]) > 1e-7 {
			t.Fatalf("SVD reconstruction off at %d: %v vs %v", i, rec.a[i], m.a[i])
		}
	}
	checkOrthonormal(t, u)
	checkOrthonormal(t, w)
	for i := 1; i < n; i++ {
		if s[i] > s[i-1]+1e-12 {
			t.Errorf("singular values not descending: %v", s)
		}
	}
}

func checkOrthonormal(t *testing.T, m *matrix) {
	t.Helper()
	p := m.transpose().mul(m)
	for i := 0; i < p.rows; i++ {
		for j := 0; j < p.cols; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(p.at(i, j)-want) > 1e-7 {
				t.Fatalf("not orthonormal at (%d,%d): %v", i, j, p.at(i, j))
			}
		}
	}
}

// ---- quantizer tests ----

// gaussianClusters generates labeled cluster data in R^dim.
func gaussianClusters(rng *stats.RNG, clusters, perCluster, dim int, spread float64) (data [][]float64, labels []int) {
	for c := 0; c < clusters; c++ {
		center := make([]float64, dim)
		for j := range center {
			center[j] = rng.NormFloat64() * 4
		}
		for i := 0; i < perCluster; i++ {
			v := make([]float64, dim)
			for j := range v {
				v[j] = center[j] + rng.NormFloat64()*spread
			}
			data = append(data, v)
			labels = append(labels, c)
		}
	}
	return data, labels
}

func TestTrainITQValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	if _, err := TrainITQ(nil, ITQConfig{Bits: 8}, rng); err == nil {
		t.Error("empty training set accepted")
	}
	data, _ := gaussianClusters(rng, 2, 10, 4, 1)
	if _, err := TrainITQ(data, ITQConfig{Bits: 8}, rng); err == nil {
		t.Error("bits > dim accepted")
	}
	ragged := [][]float64{{1, 2}, {1, 2, 3}}
	if _, err := TrainITQ(ragged, ITQConfig{Bits: 2}, rng); err == nil {
		t.Error("ragged data accepted")
	}
}

func TestITQRotationOrthogonal(t *testing.T) {
	rng := stats.NewRNG(2)
	data, _ := gaussianClusters(rng, 4, 40, 16, 1)
	q, err := TrainITQ(data, ITQConfig{Bits: 8, Iters: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkOrthonormal(t, q.rotation)
}

// TestITQPreservesNeighborhoods: codes of same-cluster points must be closer
// in Hamming space than codes of different-cluster points — the property
// that makes Hamming kNN a valid proxy for Euclidean kNN (§II-A).
func TestITQPreservesNeighborhoods(t *testing.T) {
	rng := stats.NewRNG(3)
	data, labels := gaussianClusters(rng, 4, 50, 32, 0.8)
	q, err := TrainITQ(data, ITQConfig{Bits: 16, Iters: 30}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ds := EncodeDataset(q, data)
	var intra, inter, intraN, interN float64
	for i := 0; i < ds.Len(); i += 3 {
		for j := i + 1; j < ds.Len(); j += 7 {
			d := float64(ds.At(i).Hamming(ds.At(j)))
			if labels[i] == labels[j] {
				intra += d
				intraN++
			} else {
				inter += d
				interN++
			}
		}
	}
	intra /= intraN
	inter /= interN
	if intra >= inter {
		t.Errorf("ITQ codes: intra-cluster distance %v >= inter-cluster %v", intra, inter)
	}
	// The margin should be substantial for well-separated clusters.
	if inter < intra*1.5 {
		t.Errorf("weak separation: intra %v, inter %v", intra, inter)
	}
}

// TestITQKNNRecall: Hamming kNN on ITQ codes should retrieve mostly
// same-cluster neighbors.
func TestITQKNNRecall(t *testing.T) {
	rng := stats.NewRNG(4)
	data, labels := gaussianClusters(rng, 5, 40, 24, 0.7)
	q, err := TrainITQ(data, ITQConfig{Bits: 16, Iters: 30}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ds := EncodeDataset(q, data)
	correct, total := 0, 0
	for i := 0; i < ds.Len(); i += 5 {
		res := knn.Linear(ds, ds.At(i), 6)
		for _, nb := range res[1:] { // skip self
			total++
			if labels[nb.ID] == labels[i] {
				correct++
			}
		}
	}
	ratio := float64(correct) / float64(total)
	if ratio < 0.8 {
		t.Errorf("same-cluster neighbor ratio = %v, want >= 0.8", ratio)
	}
}

// TestITQBeatsRandomHyperplane: on the same data and bit budget, ITQ's
// quantization should preserve neighborhoods at least as well as random
// hyperplanes (the advantage Gong & Lazebnik report).
func TestITQBeatsRandomHyperplane(t *testing.T) {
	rng := stats.NewRNG(5)
	data, labels := gaussianClusters(rng, 5, 40, 32, 1.0)
	itq, err := TrainITQ(data, ITQConfig{Bits: 12, Iters: 30}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rh := newRandomHyperplane(32, 12, rng)
	score := func(q Quantizer) float64 {
		ds := EncodeDataset(q, data)
		correct, total := 0, 0
		for i := 0; i < ds.Len(); i += 4 {
			res := knn.Linear(ds, ds.At(i), 5)
			for _, nb := range res[1:] {
				total++
				if labels[nb.ID] == labels[i] {
					correct++
				}
			}
		}
		return float64(correct) / float64(total)
	}
	si, sr := score(itq), score(rh)
	if si < sr-0.05 {
		t.Errorf("ITQ score %v below random hyperplane %v", si, sr)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	rng := stats.NewRNG(6)
	data, _ := gaussianClusters(rng, 2, 20, 8, 1)
	q, err := TrainITQ(data, ITQConfig{Bits: 6, Iters: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	a := q.Encode(data[0])
	b := q.Encode(data[0])
	if !a.Equal(b) {
		t.Error("Encode not deterministic")
	}
}

// randomHyperplane is the classical LSH-style binarization baseline that
// TestITQBeatsRandomHyperplane holds ITQ against: bit j is the sign of a dot
// product with a random Gaussian direction.
type randomHyperplane struct {
	planes *matrix // dim x bits
}

func newRandomHyperplane(dim, bits int, rng *stats.RNG) randomHyperplane {
	m := newMatrix(dim, bits)
	for i := range m.a {
		m.a[i] = rng.NormFloat64()
	}
	return randomHyperplane{planes: m}
}

func (r randomHyperplane) Bits() int { return r.planes.cols }

func (r randomHyperplane) Encode(vec []float64) bitvec.Vector {
	out := bitvec.New(r.planes.cols)
	for j := 0; j < r.planes.cols; j++ {
		s := 0.0
		for i, x := range vec {
			s += x * r.planes.at(i, j)
		}
		out.Set(j, s >= 0)
	}
	return out
}
