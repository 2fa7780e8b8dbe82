package fp

import (
	"math"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/order"
)

// Indyk is Indyk's p-stable sketch for estimating ‖f‖_p with p ∈ (0, 2]:
// k counters y_j = Σ_i f_i·X_ij with X_ij standard p-stable, so each y_j is
// distributed as ‖f‖_p·X and median_j |y_j| / median|X| estimates ‖f‖_p
// with relative error O(1/√k). The per-(item, counter) variates are
// derived on the fly from a salted SplitMix64 stream, the standard
// pseudorandom substitution for the full independence Indyk's analysis
// assumes (Nisan's PRG in the original; see package dist). It is a linear
// sketch and supports turnstile updates.
//
// This is the static algorithm of Theorems 1.4, 1.5 and 4.3 (via the
// robust wrappers), replacing the cited [27]/[7] constructions.
type Indyk struct {
	p       float64
	k       int
	salts   []uint64
	y       []float64
	calib   float64
	scratch []float64 // Estimate's quickselect buffer
}

// SizeIndyk returns the counter count for an (ε, δ) guarantee at one
// point; pass δ/m for strong tracking over m steps. The median estimator
// concentrates like a binomial around the true median, giving
// k = Θ(ε⁻²·log 1/δ).
func SizeIndyk(eps, delta float64) int {
	if eps <= 0 || eps >= 1 {
		panic("fp: need 0 < eps < 1")
	}
	k := int(math.Ceil(12 / (eps * eps) * math.Max(1, 0.5*math.Log2(1/delta))))
	if k < 16 {
		k = 16
	}
	return k
}

// NewIndyk returns a p-stable sketch with k counters. p must be in (0, 2].
func NewIndyk(p float64, k int, rng *rand.Rand) *Indyk {
	if p <= 0 || p > 2 {
		panic("fp: Indyk sketch needs p in (0, 2]")
	}
	if k < 2 {
		panic("fp: Indyk sketch needs k >= 2")
	}
	s := &Indyk{p: p, k: k, calib: dist.MedianAbs(p)}
	s.salts = make([]uint64, k)
	s.y = make([]float64, k)
	for j := range s.salts {
		s.salts[j] = rng.Uint64()
	}
	return s
}

// variate returns the p-stable X_{item,j}, identical across calls.
func (s *Indyk) variate(item uint64, j int) float64 {
	u1 := dist.SplitMix64(item ^ s.salts[j])
	u2 := dist.SplitMix64(u1 ^ 0x9E3779B97F4A7C15)
	return dist.Stable(s.p, u1, u2)
}

// Update implements sketch.Estimator (turnstile deltas allowed).
func (s *Indyk) Update(item uint64, delta int64) {
	d := float64(delta)
	for j := 0; j < s.k; j++ {
		s.y[j] += d * s.variate(item, j)
	}
}

// Estimate returns the estimate of the norm ‖f‖_p.
func (s *Indyk) Estimate() float64 {
	if cap(s.scratch) < s.k {
		s.scratch = make([]float64, s.k)
	}
	abs := s.scratch[:s.k]
	for j, v := range s.y {
		abs[j] = math.Abs(v)
	}
	return order.Median(abs) / s.calib
}

// Moment returns the estimate of the moment F_p = ‖f‖_p^p.
func (s *Indyk) Moment() float64 { return math.Pow(s.Estimate(), s.p) }

// P returns the moment order.
func (s *Indyk) P() float64 { return s.p }

// SpaceBytes charges counters and salts.
func (s *Indyk) SpaceBytes() int { return 16 * s.k }
