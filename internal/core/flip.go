package core

import "math"

// FlipNumber measures the (ε, m)-flip number of a concrete value sequence
// (Definition 3.2): the length of the longest chain i₁ < … < i_k with
// y_{i_{j−1}} ∉ [(1−ε)·y_{i_j}, (1+ε)·y_{i_j}]. It is computed greedily
// (extend the chain at the first violating index), which yields a valid —
// and in the monotone case maximal — chain; the experiments use it as the
// empirical counterpart of the theoretical bounds below.
func FlipNumber(seq []float64, eps float64) int {
	if len(seq) == 0 {
		return 0
	}
	k := 1
	anchor := seq[0]
	for _, y := range seq[1:] {
		if !withinRel(anchor, y, eps) {
			k++
			anchor = y
		}
	}
	return k
}

// FlipBoundMonotone bounds λ_{ε,m}(g) for a monotone g with g(0) = 0,
// g(x) ≥ 1/T on non-zero inputs, and g ≤ T (Proposition 3.4): the number
// of powers of (1+ε) in [1/T, T], plus the two boundary flips.
func FlipBoundMonotone(eps, t float64) int {
	if eps <= 0 || t <= 1 {
		panic("core: FlipBoundMonotone needs eps > 0 and T > 1")
	}
	return int(math.Ceil(2*math.Log(t)/math.Log1p(eps))) + 2
}

// FlipBoundFp bounds the flip number of ‖·‖_p^p (and of ‖·‖₀ for p = 0)
// on insertion-only streams over [n] with ‖f‖∞ ≤ maxCount
// (Corollary 3.5): monotone growth from 1 to at most n·maxCount^p.
func FlipBoundFp(p, eps float64, n uint64, maxCount float64) int {
	if p < 0 {
		panic("core: FlipBoundFp needs p >= 0")
	}
	t := float64(n)
	if p > 0 {
		t = float64(n) * math.Pow(maxCount, p)
	}
	// Proposition 3.4 with T = n·M^p; only the upward range matters for a
	// monotone statistic, hence log rather than 2·log.
	return climb(t, eps)
}

// climb counts the (1+step)-fold rises that take a statistic from 1 up to
// t (floored at 2), plus the two boundary flips: ⌈ln t / ln(1+step)⌉ + 2,
// the upward half of Proposition 3.4 that every insertion-only bound
// below applies at its own growth factor.
func climb(t, step float64) int {
	if t < 2 {
		t = 2
	}
	return int(math.Ceil(math.Log(t)/math.Log1p(step))) + 2
}

// FlipBoundLp bounds the flip number of the norm ‖·‖_p = F_p^{1/p} on
// insertion-only streams; a (1+ε) change of the norm is a (1+ε)^p change
// of the moment, so the bound is FlipBoundFp at granularity ≈ p·ε.
func FlipBoundLp(p, eps float64, n uint64, maxCount float64) int {
	if p <= 0 {
		return FlipBoundFp(0, eps, n, maxCount)
	}
	return climb(math.Pow(float64(n)*math.Pow(maxCount, p), 1/p), eps)
}

// FlipBoundEntropyExp bounds the flip number of g = 2^{H(·)} on
// insertion-only streams (Proposition 7.2): for 2^H to move by (1±ε),
// ‖f‖₁ must grow by (1 + Θ̃(ε²/log²n)), which can happen at most
// O(ε⁻²·log³ n) times.
func FlipBoundEntropyExp(eps float64, n uint64, maxCount float64) int {
	t := float64(n)*maxCount + 4
	logn := math.Log2(t)
	return climb(t, eps*eps/(logn*logn))
}

// FlipBoundTurnstile bounds the flip number of the class S_λ of turnstile
// streams (Theorem 1.6): the class is defined by its declared Fp flip
// number, so the bound is the caller-supplied λ itself, floored at 1 (a
// non-constant statistic flips at least once).
func FlipBoundTurnstile(lambda int) int {
	if lambda < 1 {
		return 1
	}
	return lambda
}

// FlipBoundBoundedDeletion bounds the flip number of ‖·‖_p on Fp
// α-bounded-deletion streams (Lemma 8.2): every (1±ε) movement of ‖f‖_p
// forces ‖h‖_p^p to grow by a (1 + ε^p/α) factor, which can happen at most
// O(p·α·ε^{−p}·log n) times.
func FlipBoundBoundedDeletion(p, alpha, eps float64, n uint64, maxCount float64) int {
	if p < 1 || alpha < 1 {
		panic("core: FlipBoundBoundedDeletion needs p >= 1 and alpha >= 1")
	}
	return climb(float64(n)*math.Pow(maxCount, p), math.Pow(eps, p)/alpha)
}
