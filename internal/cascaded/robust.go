package cascaded

import (
	"fmt"
	"math"

	"repro/internal/robust"
	"repro/internal/sketch"
)

// maxNorm bounds ‖·‖_(p,k) over rows×cols matrices with entries
// ≤ maxCount: (rows·(cols·maxCount^k)^{p/k})^{1/p}.
func maxNorm(p, k float64, rows, cols uint64, maxCount float64) float64 {
	return math.Pow(float64(rows)*math.Pow(float64(cols)*math.Pow(maxCount, k), p/k), 1/p)
}

// FlipBound bounds the flip number of ‖·‖_(p,k) on insertion-only matrix
// streams over rows×cols matrices with entries ≤ maxCount, via
// Proposition 3.4: the norm is monotone under coordinate-wise increments,
// at least 1 once non-zero, and at most maxNorm.
func FlipBound(p, k, eps float64, rows, cols uint64, maxCount float64) int {
	t := maxNorm(p, k, rows, cols, maxCount)
	if t < 2 {
		t = 2
	}
	return int(math.Ceil(math.Log(t)/math.Log1p(eps))) + 2
}

// Problem describes the (p, k)-cascaded norm of a cols-column matrix
// streamed as flattened row*cols+col items, for robust.Policy.Wrap over a
// universe of rows·cols items. The inner algorithm is an exact tracker —
// deterministic, so the wrappers' value is demonstrative: the framework
// applies to cascaded norms exactly as the paper claims after
// Proposition 3.4. The fully sketched instantiation exists for the (2,2)
// cascade, which equals the L2 norm of the flattened matrix:
// robust.NewFp(2, …) over Key items.
func Problem(p, k float64, cols uint64) robust.Problem {
	return robust.Problem{
		Name:     fmt.Sprintf("cascaded(%g,%g)-norm", p, k),
		Monotone: true,
		Inner: func(eps0, lnInvDelta float64, n uint64, kCap int, seed int64) sketch.Estimator {
			return NewVectorized(p, k, cols)
		},
		FlipBound: func(eps float64, n uint64, maxCount float64) int {
			return FlipBound(p, k, eps, n/cols, cols, maxCount)
		},
		MaxValue: func(n uint64, maxCount float64) float64 {
			return maxNorm(p, k, n/cols, cols, maxCount)
		},
	}
}
