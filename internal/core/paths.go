package core

import (
	"math"

	"repro/internal/sketch"
)

// Paths implements the computation-paths transformation (Definition 3.7 /
// Lemma 3.8): a single static estimator instance, instantiated at a
// failure probability δ₀ small enough to union-bound over every output
// sequence the ε-rounded algorithm can emit, publishing through the same
// ε/2-rounding step as the Switcher, so a flip costs λ the same in both
// wrappers and an output that never leaves 0 spends none of it. Against
// the rounded output the adversary's adaptive choices collapse to one of
// at most C(m, λ)·S^λ fixed streams (λ = flip number, S = number of
// rounded values), all of which the inner instance handles simultaneously
// with probability 1 − δ.
//
// Use PathsLnInvDelta to compute ln(1/δ₀) for the inner instance's sizing;
// the quantity routinely exceeds float64's exponent range as a raw
// probability, so sizings in this repository accept it in log form.
type Paths struct {
	inner  sketch.Estimator
	r      rounding
	budget int
}

// NewPaths wraps inner (already instantiated at the Lemma 3.8 failure
// probability) with an ε-rounding of its outputs. lambda is the flip
// number inner's δ₀ was union-bounded over: once the output has changed
// more than lambda times the Lemma 3.8 guarantee no longer covers the
// stream, which Robustness reports as Exhausted.
func NewPaths(eps float64, lambda int, inner sketch.Estimator) *Paths {
	if lambda < 1 {
		panic("core: NewPaths needs lambda >= 1")
	}
	return &Paths{inner: inner, r: rounding{eps: eps / 2}, budget: lambda}
}

// Update implements sketch.Estimator.
func (p *Paths) Update(item uint64, delta int64) {
	p.inner.Update(item, delta)
	p.r.step(p.inner.Estimate(), RoundEps)
}

// Estimate returns the rounded output.
func (p *Paths) Estimate() float64 { return p.r.out }

// Robustness implements sketch.RobustnessReporter.
func (p *Paths) Robustness() sketch.Robustness {
	return sketch.Robustness{
		Copies:    1,
		Switches:  p.r.flips,
		Budget:    p.budget,
		Exhausted: p.r.flips > p.budget,
	}
}

// SpaceBytes charges the inner instance plus the held output.
func (p *Paths) SpaceBytes() int { return p.inner.SpaceBytes() + 16 }

// PathsLnInvDelta returns ln(1/δ₀) for the computation-paths reduction:
// δ₀ = δ / (C(m, λ) · S^λ), with S = NumRoundedValues(Θ(ε), T) and
// ln C(m, λ) ≤ λ·ln(e·m/λ). lnInvDelta is ln(1/δ) for the target overall
// failure probability.
func PathsLnInvDelta(m uint64, lambda int, eps, t, lnInvDelta float64) float64 {
	if lambda < 1 {
		lambda = 1
	}
	lam := float64(lambda)
	s := float64(NumRoundedValues(eps, t))
	lnChoose := lam * math.Log(math.E*float64(m)/lam)
	if lnChoose < 0 {
		lnChoose = 0
	}
	return lnInvDelta + lnChoose + lam*math.Log(s)
}

// MedianRepsForLn converts a log-form failure probability into the number
// of constant-error repetitions whose median achieves it: Θ(ln(1/δ))
// repetitions, forced odd.
func MedianRepsForLn(lnInvDelta float64) int {
	r := int(math.Ceil(lnInvDelta))
	if r < 3 {
		r = 3
	}
	if r%2 == 0 {
		r++
	}
	return r
}
