package robust

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fp"
	"repro/internal/sketch"
)

// NewFp returns the adversarially robust Lp-norm estimator of Theorem 1.4
// for p ∈ (0, 2]: ring sketch switching over strong-tracking p-stable
// sketches (for p = 2, the faster bucketed AMS sketch). With probability
// 1−δ it publishes (1±ε)·‖f^(t)‖_p at every step of any adaptively chosen
// insertion-only stream. It is the ring instance of the generic policy
// layer: Policy{Kind: Ring}.Wrap over LpProblem(p).
func NewFp(p, eps, delta float64, n uint64, seed int64) *core.Switcher {
	est, err := Policy{Kind: Ring}.Wrap(eps, delta, n, seed, LpProblem(p))
	if err != nil {
		panic("robust: " + err.Error())
	}
	return est.(*core.Switcher)
}

// FpBigProblem describes the Lp norm for p > 2 (Theorem 1.7): the
// max-stability estimator, whose width carries the n^{1−2/p} dependence of
// the space bound. reps and rows size the estimator directly — the honest
// δ₀-driven repetition count is far beyond laptop scale, so the experiment
// harness sweeps them — and the paths policy contributes the flip budget
// and the rounding.
func FpBigProblem(p float64, reps, rows int) Problem {
	if p <= 2 {
		panic("robust: FpBigProblem needs p > 2 (use LpProblem)")
	}
	return Problem{
		Name:     fmt.Sprintf("l%g-norm", p),
		Monotone: true,
		Inner: func(eps0, lnInvDelta float64, n uint64, kCap int, seed int64) sketch.Estimator {
			return fp.NewMaxStable(p, reps, rows, fp.SizeMaxStableWidth(p, n), dist.Rand(seed))
		},
		FlipBound: func(eps float64, n uint64, maxCount float64) int {
			return core.FlipBoundLp(p, eps, n, maxCount)
		},
		MaxValue: func(n uint64, maxCount float64) float64 {
			return math.Pow(float64(n)*math.Pow(maxCount, p), 1/p)
		},
	}
}
