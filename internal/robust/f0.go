package robust

import (
	"repro/internal/core"
	"repro/internal/f0"
	"repro/internal/sketch"
)

// NewF0 returns the adversarially robust distinct-elements estimator of
// Theorem 1.1 (sketch switching with the ring/restart optimization of
// Theorem 4.1, which cuts the copy count from Θ(ε⁻¹ log n) to
// Θ(ε⁻¹ log ε⁻¹)): a ring of independent (Θ(ε), δ/copies)-strong-tracking
// KMV estimators, published through ε/2-rounding. With probability 1−δ the
// output is a (1±ε)-approximation of ‖f^(t)‖₀ at every step of any
// adaptively chosen insertion-only stream over [n].
func NewF0(eps, delta float64, n uint64, seed int64) *core.Switcher {
	// Inner accuracy ε/5 (the paper's proof constant is ε/20; see
	// Problem.Eps0Div — the integration tests validate the end-to-end ε
	// guarantee empirically). The construction is the ring
	// instance of the generic policy layer over F0Problem.
	est, err := Policy{Kind: Ring}.Wrap(eps, delta, n, seed, F0Problem())
	if err != nil {
		panic("robust: " + err.Error())
	}
	return est.(*core.Switcher)
}

// F0FastProblem is F0Problem with the paper's Algorithm 2 as the inner
// instance (its hashing goes multipoint from the degree where that is
// faster, so the update cost depends only poly-log-log on the failure
// probability). Under the paths policy it is the fast robust
// distinct-elements estimator of Theorem 1.2, whose regime is
// δ = n^{−Θ((1/ε)·log n)}. At laptop scale the honest δ₀ keeps
// Algorithm 2 in its exact prefix (the space bound ε⁻³·log³n exceeds the
// stream until n is very large — an honest consequence of the theory).
func F0FastProblem() Problem {
	prob := F0Problem()
	prob.Name = "f0-fast"
	prob.Eps0Div = 10
	prob.Inner = func(eps0, lnInvDelta float64, n uint64, kCap int, seed int64) sketch.Estimator {
		return f0.NewAlg2(f0.Alg2Sizing(eps0, lnInvDelta, n), seed)
	}
	return prob
}
