package quantize

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// Quantizer maps real-valued feature vectors to binary codes.
type Quantizer interface {
	// Bits returns the code length.
	Bits() int
	// Encode converts one feature vector to its binary code.
	Encode(vec []float64) bitvec.Vector
}

// EncodeDataset runs a quantizer over a feature matrix.
func EncodeDataset(q Quantizer, data [][]float64) *bitvec.Dataset {
	ds := bitvec.NewDataset(q.Bits())
	for _, v := range data {
		ds.Append(q.Encode(v))
	}
	return ds
}

// ITQ is Iterative Quantization (Gong & Lazebnik, CVPR'11), the offline
// binarization the paper assumes for its workloads (§II-A): mean-center,
// project onto the top principal components, then alternate between optimal
// binary codes and an orthogonal rotation (a Procrustes problem solved by
// SVD) that minimizes quantization error.
type ITQ struct {
	mean       []float64
	projection *matrix // dim x bits: top PCA directions
	rotation   *matrix // bits x bits orthogonal
	bits       int
}

// ITQConfig configures training.
type ITQConfig struct {
	Bits  int
	Iters int // rotation refinement iterations; Gong & Lazebnik use 50
}

// TrainITQ learns an ITQ quantizer from training data (rows = vectors).
func TrainITQ(data [][]float64, cfg ITQConfig, rng *stats.RNG) (*ITQ, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("quantize: empty training set")
	}
	dim := len(data[0])
	if cfg.Bits <= 0 || cfg.Bits > dim {
		return nil, fmt.Errorf("quantize: bits %d out of range [1,%d]", cfg.Bits, dim)
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 50
	}
	for i, v := range data {
		if len(v) != dim {
			return nil, fmt.Errorf("quantize: vector %d has %d dims, want %d", i, len(v), dim)
		}
	}
	q := &ITQ{bits: cfg.Bits}

	// Mean-center.
	q.mean = make([]float64, dim)
	for _, v := range data {
		for j, x := range v {
			q.mean[j] += x
		}
	}
	for j := range q.mean {
		q.mean[j] /= float64(len(data))
	}

	// Covariance and PCA.
	cov := newMatrix(dim, dim)
	for _, v := range data {
		for i := 0; i < dim; i++ {
			ci := v[i] - q.mean[i]
			for j := i; j < dim; j++ {
				cov.a[i*dim+j] += ci * (v[j] - q.mean[j])
			}
		}
	}
	for i := 0; i < dim; i++ {
		for j := i; j < dim; j++ {
			val := cov.at(i, j) / float64(len(data))
			cov.set(i, j, val)
			cov.set(j, i, val)
		}
	}
	eigvals, eigvecs := jacobiEigen(cov)
	top := topIndices(eigvals, cfg.Bits)
	q.projection = newMatrix(dim, cfg.Bits)
	for c, idx := range top {
		for r := 0; r < dim; r++ {
			q.projection.set(r, c, eigvecs.at(r, idx))
		}
	}

	// Projected data V (n x bits).
	v := newMatrix(len(data), cfg.Bits)
	for i, row := range data {
		centered := make([]float64, dim)
		for j := range row {
			centered[j] = row[j] - q.mean[j]
		}
		for c := 0; c < cfg.Bits; c++ {
			s := 0.0
			for r := 0; r < dim; r++ {
				s += centered[r] * q.projection.at(r, c)
			}
			v.set(i, c, s)
		}
	}

	// Random orthogonal initialization: QR of a Gaussian matrix via
	// Gram-Schmidt.
	q.rotation = randomOrthogonal(cfg.Bits, rng)

	// Alternating optimization: B = sign(VR); R from the Procrustes problem
	// min ||B - VR||_F solved by SVD of V^T B.
	for iter := 0; iter < cfg.Iters; iter++ {
		vr := v.mul(q.rotation)
		b := newMatrix(v.rows, cfg.Bits)
		for i := 0; i < b.rows; i++ {
			for j := 0; j < b.cols; j++ {
				if vr.at(i, j) >= 0 {
					b.set(i, j, 1)
				} else {
					b.set(i, j, -1)
				}
			}
		}
		vtb := v.transpose().mul(b)
		u, _, w := svd(vtb)
		q.rotation = u.mul(w.transpose())
	}
	return q, nil
}

func topIndices(vals []float64, k int) []int {
	order := make([]int, len(vals))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if vals[order[j]] > vals[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	return order[:k]
}

func randomOrthogonal(n int, rng *stats.RNG) *matrix {
	m := newMatrix(n, n)
	for i := range m.a {
		m.a[i] = rng.NormFloat64()
	}
	// Gram-Schmidt over columns.
	for c := 0; c < n; c++ {
		for prev := 0; prev < c; prev++ {
			dot := 0.0
			for r := 0; r < n; r++ {
				dot += m.at(r, c) * m.at(r, prev)
			}
			for r := 0; r < n; r++ {
				m.set(r, c, m.at(r, c)-dot*m.at(r, prev))
			}
		}
		norm := 0.0
		for r := 0; r < n; r++ {
			norm += m.at(r, c) * m.at(r, c)
		}
		norm = sqrtOr1(norm)
		for r := 0; r < n; r++ {
			m.set(r, c, m.at(r, c)/norm)
		}
	}
	return m
}

// Bits returns the code length.
func (q *ITQ) Bits() int { return q.bits }

// Encode projects, rotates and signs one feature vector.
func (q *ITQ) Encode(vec []float64) bitvec.Vector {
	if len(vec) != len(q.mean) {
		panic(fmt.Sprintf("quantize: vector dim %d, trained on %d", len(vec), len(q.mean)))
	}
	proj := make([]float64, q.bits)
	for c := 0; c < q.bits; c++ {
		s := 0.0
		for r := 0; r < len(vec); r++ {
			s += (vec[r] - q.mean[r]) * q.projection.at(r, c)
		}
		proj[c] = s
	}
	out := bitvec.New(q.bits)
	for j := 0; j < q.bits; j++ {
		s := 0.0
		for c := 0; c < q.bits; c++ {
			s += proj[c] * q.rotation.at(c, j)
		}
		if s >= 0 {
			out.Set(j, true)
		}
	}
	return out
}

func sqrtOr1(x float64) float64 {
	if x <= 1e-24 {
		return 1
	}
	return math.Sqrt(x)
}
