package core

import "math"

// RoundEps returns [x]_ε, the signed power of (1+ε) multiplicatively
// closest to x (Definition 3.1's rounding primitive): for x > 0 it is the
// value (1+ε)^ℓ, ℓ ∈ Z, minimizing max{y/x, x/y}; [0]_ε = 0 and
// [−x]_ε = −[x]_ε. The result is always a (1 + ε/2)-approximation of x.
func RoundEps(x, eps float64) float64 {
	if eps <= 0 {
		panic("core: RoundEps needs eps > 0")
	}
	switch {
	case x == 0:
		return 0
	case x < 0:
		return -RoundEps(-x, eps)
	}
	l := math.Log(x) / math.Log1p(eps)
	lo := math.Pow(1+eps, math.Floor(l))
	hi := math.Pow(1+eps, math.Ceil(l))
	// Pick the neighbor with the smaller multiplicative distance.
	if x*x <= lo*hi {
		return lo
	}
	return hi
}

// NumRoundedValues counts the possible values of [x]_ε for
// x ∈ [−T, −1/T] ∪ {0} ∪ [1/T, T]: the count that enters the
// computation-paths union bound (Lemma 3.8). It is O(ε⁻¹·log T).
func NumRoundedValues(eps, t float64) int {
	if t <= 1 {
		return 3
	}
	perSign := int(2*math.Log(t)/math.Log1p(eps)) + 2
	return 2*perSign + 1
}

// rounding is the ε-rounding of a sequence (Definition 3.1), the one step
// through which Algorithm 1 and Lemma 3.8 publish: out is held as long as
// it stays a (1±eps) approximation of the tracked value and re-rounded
// otherwise. Each re-rounding is a flip, the unit the flip budget λ counts:
// if the tracked values (ε/10)-track g, out flips at most λ_{ε/10,m}(g)
// times (Lemma 3.3). The zero value holds out = 0, so a sequence that
// starts at 0 does not flip.
type rounding struct {
	eps, out float64
	flips    int
}

// step feeds the tracked value y and reports whether out flipped. A flip
// re-rounds out with round, which is always RoundEps, and always changes
// out: RoundEps(y) lies inside the band that out just left. round is a
// parameter because the inliner prices a call through one at 17 rather
// than 57, which keeps step within its budget of 80; so step inlines into
// both wrappers' Update, and a value inside the band costs no call.
func (r *rounding) step(y float64, round func(x, eps float64) float64) bool {
	if withinRel(r.out, y, r.eps) {
		return false
	}
	r.out = round(y, r.eps)
	r.flips++
	return true
}

// withinRel reports whether out lies in the interval [(1−eps)·y, (1+eps)·y]
// (the interval orientation flips for negative y; for y == 0 only out == 0
// qualifies).
func withinRel(out, y, eps float64) bool {
	lo, hi := (1-eps)*y, (1+eps)*y
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo <= out && out <= hi
}
