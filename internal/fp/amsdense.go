package fp

import "math/rand"

// DenseAMS is the classic Alon–Matias–Szegedy linear sketch exactly as
// analyzed in Section 9 of the paper: an explicit t×n matrix S of i.i.d.
// uniform ±1/√t entries, maintaining y = S·f and estimating F2 = ‖f‖₂² by
// ‖Sf‖₂². It is the target of the adversarial attack of Algorithm 3 /
// Theorem 9.1 (which requires the fully independent dense form, footnote
// 10 of the paper), and exists in this repository to be broken; use
// F2Sketch for production estimates.
type DenseAMS struct {
	t     int
	n     uint64
	signs []int8 // row-major t×n matrix of ±1
	y     []float64
}

// NewDenseAMS returns a dense AMS sketch with t rows over universe [n].
func NewDenseAMS(t int, n uint64, rng *rand.Rand) *DenseAMS {
	if t < 1 || n < 1 {
		panic("fp: DenseAMS needs t >= 1 and n >= 1")
	}
	s := &DenseAMS{
		t:     t,
		n:     n,
		signs: make([]int8, uint64(t)*n),
		y:     make([]float64, t),
	}
	for i := range s.signs {
		if rng.Int63()&1 == 1 {
			s.signs[i] = 1
		} else {
			s.signs[i] = -1
		}
	}
	return s
}

// Rows returns the number of sketch rows t.
func (s *DenseAMS) Rows() int { return s.t }

// Update implements sketch.Estimator; items outside [n] panic, as the
// dense matrix has no column for them.
func (s *DenseAMS) Update(item uint64, delta int64) {
	if item >= s.n {
		panic("fp: DenseAMS item out of universe")
	}
	d := float64(delta)
	for r := 0; r < s.t; r++ {
		s.y[r] += d * float64(s.signs[uint64(r)*s.n+item])
	}
}

// Estimate returns ‖Sf‖₂² = (1/t)·Σ_r y_r² (the 1/√t normalization of the
// matrix entries is applied here rather than stored).
func (s *DenseAMS) Estimate() float64 {
	var sum float64
	for _, v := range s.y {
		sum += v * v
	}
	return sum / float64(s.t)
}

// SpaceBytes charges the linear-sketch state y; the sign matrix is the
// sketch's randomness (in the streaming model it would be derived from a
// seed or random oracle) and is not charged.
func (s *DenseAMS) SpaceBytes() int { return 8 * s.t }
