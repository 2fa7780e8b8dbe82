package core

import (
	"math"
	"testing"

	"repro/internal/f0"
	"repro/internal/stream"
)

func TestPathsTracksWithExactInner(t *testing.T) {
	const eps = 0.3
	p := NewPaths(eps, 64, f0.NewExact())
	f := stream.NewFreq()
	g := stream.NewUniform(4096, 8000, 3)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		p.Update(u.Item, u.Delta)
		f.Apply(u)
		truth := f.F0()
		if est := p.Estimate(); math.Abs(est-truth) > eps*truth {
			t.Fatalf("paths output %v not within (1±%v) of %v at m=%d", est, eps, truth, f.Updates())
		}
	}
}

func TestPathsChangeBudget(t *testing.T) {
	const eps = 0.4
	const m = 10000
	budget := FlipBoundFp(0, eps/20, m, 1)
	p := NewPaths(eps, budget, f0.NewExact())
	g := stream.NewDistinct(m)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		p.Update(u.Item, u.Delta)
	}
	if r := p.Robustness(); r.Exhausted || r.Budget != budget || r.Switches != p.Changes() {
		t.Errorf("rounded output changed %d times; robustness %+v, want unexhausted budget %d", p.Changes(), r, budget)
	}

	tiny := NewPaths(eps, 2, f0.NewExact())
	for i := uint64(0); i < 100; i++ {
		tiny.Update(i, 1)
	}
	if r := tiny.Robustness(); !r.Exhausted || r.Remaining() != 0 {
		t.Errorf("budget-2 paths over 100 distinct items: robustness %+v, want exhausted", r)
	}
}

func TestPathsLnInvDeltaScaling(t *testing.T) {
	base := PathsLnInvDelta(10000, 50, 0.2, 1e6, math.Log(100))
	if base <= math.Log(100) {
		t.Error("union bound must strictly increase ln(1/δ)")
	}
	moreFlips := PathsLnInvDelta(10000, 200, 0.2, 1e6, math.Log(100))
	if moreFlips <= base {
		t.Error("larger flip number must demand smaller δ₀")
	}
	longer := PathsLnInvDelta(10000000, 50, 0.2, 1e6, math.Log(100))
	if longer <= base {
		t.Error("longer streams must demand smaller δ₀")
	}
}

func TestPathsLnInvDeltaMatchesPaperScale(t *testing.T) {
	// Theorem 4.2's regime: δ ≈ n^{-C(1/ε)·log n}. For n = m = 2^12,
	// ε = 0.5: λ = O((1/ε)·ln m) ≈ 17; ln(1/δ₀) should be Θ(λ·ln m),
	// i.e. hundreds, not millions.
	n := uint64(1 << 12)
	lambda := FlipBoundLp(2, 0.5/20, n, float64(n))
	got := PathsLnInvDelta(uint64(n), lambda, 0.5, float64(n)*float64(n), math.Log(1000))
	if got < 100 || got > 1e6 {
		t.Errorf("ln(1/δ₀) = %v outside the plausible range [1e2, 1e6] (λ=%d)", got, lambda)
	}
}

func TestMedianRepsForLn(t *testing.T) {
	if got := MedianRepsForLn(0); got != 3 {
		t.Errorf("MedianRepsForLn(0) = %d, want 3", got)
	}
	if got := MedianRepsForLn(10); got%2 == 0 {
		t.Errorf("reps must be odd, got %d", got)
	}
	if MedianRepsForLn(100) <= MedianRepsForLn(10) {
		t.Error("reps must grow with ln(1/δ)")
	}
}

func TestPathsSpaceDominatedByInner(t *testing.T) {
	inner := f0.NewExact()
	p := NewPaths(0.2, 64, inner)
	for i := uint64(0); i < 100; i++ {
		p.Update(i, 1)
	}
	if p.SpaceBytes() < inner.SpaceBytes() {
		t.Error("wrapper must charge at least the inner space")
	}
	if p.SpaceBytes() > inner.SpaceBytes()+64 {
		t.Error("wrapper overhead should be O(1)")
	}
}
