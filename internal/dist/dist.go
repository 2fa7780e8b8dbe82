// Package dist supplies the deterministic pseudorandom variates behind the
// sketches that need per-(item, counter) randomness derived on the fly:
// Indyk's p-stable sketch (internal/fp), the max-stable F_p estimator for
// p > 2 (internal/fp) and the Clifford–Cosma entropy sketch
// (internal/entropy).
//
// All samplers are pure functions of raw uint64 words, so a sketch can
// re-derive the exact same variate for an item on every update — the
// standard substitute for storing the full random matrix the analyses
// assume. Uniforms come from the SplitMix64 finalizer; continuous variates
// use inverse-CDF (exponential) and Chambers–Mallows–Stuck (stable).
//
// Rand seeds the sketches that draw their coefficients once, at
// construction: it yields math/rand's sequence for a seed at a cost that
// follows the draws made, not the 607 words math/rand seeds first.
package dist

import (
	"math"
	"sort"
	"sync"
)

// SplitMix64 is the SplitMix64 finalizer: a bijective mixer whose output
// passes BigCrush even on counter inputs. It is the root PRF for all
// derived variates and for hash post-mixing.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// uniform maps a uint64 to the open interval (0, 1): the top 53 bits plus
// a half-ulp offset, so 0 and 1 are unreachable and log/tan stay finite.
func uniform(u uint64) float64 {
	return (float64(u>>11) + 0.5) * (1.0 / (1 << 53))
}

// Exp returns an Exp(1) variate derived from u by inversion.
func Exp(u uint64) float64 {
	return -math.Log(uniform(u))
}

// Stable returns a standard symmetric p-stable variate (scale 1, Nolan's
// 1-parametrization) derived from the words u1, u2 via the
// Chambers–Mallows–Stuck transform
//
//	X = sin(pθ)/cos(θ)^{1/p} · (cos((1−p)θ)/W)^{(1−p)/p}
//
// with θ = π·(U₁ − ½) uniform on (−π/2, π/2) and W = −ln U₂ exponential.
// p = 1 gives a standard Cauchy (X = tan θ); p = 2 gives N(0, 2).
func Stable(p float64, u1, u2 uint64) float64 {
	theta := math.Pi * (uniform(u1) - 0.5)
	w := Exp(u2)
	return math.Sin(p*theta) / math.Pow(math.Cos(theta), 1/p) *
		math.Pow(math.Cos((1-p)*theta)/w, (1-p)/p)
}

// SkewedStable1 returns a maximally skewed standard 1-stable variate
// (α = 1, β = −1, scale 1, location 0), the distribution behind the
// Clifford–Cosma entropy sketch: its moment generating function is
// E[exp(tX)] = exp((2/π)·t·ln t) for t ≥ 0, so E[exp(X)] = 1 and a
// weighted sum Σ aᵢXᵢ with Σ aᵢ = 1 picks up the location shift
// −(2/π)·Σ aᵢ ln(1/aᵢ). CMS transform for α = 1:
//
//	X = (2/π)·[(π/2 − θ)·tan θ + ln((π/2)·W·cos θ / (π/2 − θ))]
func SkewedStable1(u1, u2 uint64) float64 {
	theta := math.Pi * (uniform(u1) - 0.5)
	w := Exp(u2)
	halfPi := math.Pi / 2
	return (2 / math.Pi) * ((halfPi-theta)*math.Tan(theta) +
		math.Log(halfPi*w*math.Cos(theta)/(halfPi-theta)))
}

// medianGrid is the per-axis resolution of the deterministic quantile grid
// used by MedianAbs; 512×512 evaluations put the result within ~1e-3 of
// the true median, far inside the O(1/√k) error of the sketches that
// consume it.
const medianGrid = 512

var medianCache sync.Map // p float64 -> float64

// MedianAbs returns the median of |X| for a standard symmetric p-stable X
// in the same parametrization as Stable — the calibration constant of
// Indyk's estimator (median_j |y_j| / MedianAbs(p) estimates ‖f‖_p).
// There is no closed form except at p = 1 (median|Cauchy| = 1) and p = 2
// (median|N(0,2)| = √2·Φ⁻¹(3/4)); other orders are computed once by
// taking the median of the CMS transform over a deterministic quantile
// midpoint grid, and memoized per p.
func MedianAbs(p float64) float64 {
	if p <= 0 || p > 2 {
		panic("dist: MedianAbs needs p in (0, 2]")
	}
	if v, ok := medianCache.Load(p); ok {
		return v.(float64)
	}
	var med float64
	switch p {
	case 1:
		med = 1
	case 2:
		med = math.Sqrt2 * 0.6744897501960817 // √2·Φ⁻¹(3/4)
	default:
		med = gridMedianAbs(p)
	}
	medianCache.Store(p, med)
	return med
}

// gridMedianAbs evaluates |CMS(p, θᵢ, Wⱼ)| over the product of quantile
// midpoints in each input dimension and returns the empirical median.
func gridMedianAbs(p float64) float64 {
	n := medianGrid
	theta := make([]float64, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		q := (float64(i) + 0.5) / float64(n)
		theta[i] = math.Pi * (q - 0.5)
		w[i] = -math.Log(q)
	}
	abs := make([]float64, 0, n*n)
	for _, t := range theta {
		sinPT := math.Sin(p * t)
		cosT := math.Pow(math.Cos(t), 1/p)
		cosQT := math.Cos((1 - p) * t)
		for _, e := range w {
			x := sinPT / cosT * math.Pow(cosQT/e, (1-p)/p)
			abs = append(abs, math.Abs(x))
		}
	}
	sort.Float64s(abs)
	if len(abs)%2 == 1 {
		return abs[len(abs)/2]
	}
	return (abs[len(abs)/2-1] + abs[len(abs)/2]) / 2
}
