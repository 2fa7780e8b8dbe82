package robust

import "repro/internal/sketch"

// NewEntropy returns the adversarially robust additive-ε entropy estimator
// of Theorem 1.10 / 7.3 — additive error epsBits (in bits), failure
// probability δ, on streams whose 2^H flip number is at most lambda: the
// dense-switching instance of the policy layer over EntropyProblem, which
// carries the 2^H ↔ bits conversions. The worst-case λ of Proposition 7.2
// (core.FlipBoundEntropyExp) is very large at realistic parameters — the
// honest cost of the theorem — so the caller passes a domain-informed
// budget, and Robustness().Exhausted (the result is a
// sketch.RobustnessReporter) reports overruns.
//
// Ring recycling is not used here: restarted instances would estimate the
// entropy of a stream suffix, which (unlike a monotone norm) can differ
// arbitrarily from the full-stream entropy.
func NewEntropy(epsBits, delta float64, lambda int, seed int64) sketch.Estimator {
	// Inner accuracy ε/3 (the paper's proof constant is ε/20; the coarser
	// setting keeps the λ-copy ensemble runnable and the integration tests
	// validate the end-to-end additive error empirically).
	est, err := Policy{Kind: Switching, Budget: lambda}.Wrap(epsBits, delta, 1<<32, seed, EntropyProblem())
	if err != nil {
		panic("robust: " + err.Error())
	}
	return est
}
