// Package entropy implements empirical Shannon entropy estimators: an
// exact incremental baseline and the Clifford–Cosma sketch ([11], the
// static algorithm behind Theorem 7.3's general-model bound). Both report
// entropy in bits.
package entropy

import "math"

// Exact maintains the exact empirical Shannon entropy of an insertion-only
// stream in O(1) time per update and Θ(F0) space, via the decomposition
// H = log₂(F1) − (Σ f_i·log₂ f_i)/F1.
type Exact struct {
	counts map[uint64]int64
	f1     float64
	s      float64 // Σ f_i·log₂(f_i)
}

// NewExact returns an exact entropy tracker.
func NewExact() *Exact { return &Exact{counts: make(map[uint64]int64)} }

// Update implements sketch.Estimator. Deltas must keep counts
// non-negative (insertion-only streams always do).
func (e *Exact) Update(item uint64, delta int64) {
	c := e.counts[item]
	nc := c + delta
	if nc < 0 {
		panic("entropy: negative frequency in exact tracker")
	}
	e.s += term(nc) - term(c)
	e.f1 += float64(delta)
	if nc == 0 {
		delete(e.counts, item)
	} else {
		e.counts[item] = nc
	}
}

func term(c int64) float64 {
	if c <= 1 {
		return 0
	}
	fc := float64(c)
	return fc * math.Log2(fc)
}

// Estimate returns H(f) in bits.
func (e *Exact) Estimate() float64 {
	if e.f1 <= 0 {
		return 0
	}
	h := math.Log2(e.f1) - e.s/e.f1
	if h < 0 { // floating point residue on single-item streams
		return 0
	}
	return h
}

// SpaceBytes charges 16 bytes per live counter.
func (e *Exact) SpaceBytes() int { return 16*len(e.counts) + 16 }
