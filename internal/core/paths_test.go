package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/f0"
	"repro/internal/fp"
	"repro/internal/sketch"
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
	if r := p.Robustness(); r.Exhausted || r.Budget != budget || r.Switches != p.r.flips {
		t.Errorf("rounded output changed %d times; robustness %+v, want unexhausted budget %d", p.r.flips, r, budget)
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

// TestPathsAndSwitcherAgreeFromZero: both wrappers publish through one
// rounding step, so over the same inner estimates they publish the same
// sequence and count the same flips — including a first update that
// leaves the estimate at 0, which moves no output and spends no budget.
// Every Switcher instance is the same seeded F2 sketch, so its estimates
// are the Paths inner's whichever instance is active. A factory that
// ignores its seed cannot promise what sketch.Resetter asks of it, so the
// sketch is handed over with its Reset hidden: a flip builds the next
// copy from the factory instead of restarting the spent one from a seed.
func TestPathsAndSwitcherAgreeFromZero(t *testing.T) {
	f2 := func(int64) sketch.Estimator {
		return struct{ sketch.Estimator }{fp.NewF2(fp.F2Sizing{Rows: 5, Width: 64}, rand.New(rand.NewSource(7)))}
	}
	sw := NewSwitcher(0.3, 64, false, 1, f2)
	p := NewPaths(0.3, 64, f2(0))
	ups := []sketch.Update{{Item: 3, Delta: 0}, {Item: 3, Delta: 1}}
	for i := uint64(0); i < 200; i++ {
		ups = append(ups, sketch.Update{Item: i % 37, Delta: 1})
	}
	for i, u := range ups {
		sw.Update(u.Item, u.Delta)
		p.Update(u.Item, u.Delta)
		if sw.Estimate() != p.Estimate() || sw.Switches() != p.Robustness().Switches {
			t.Fatalf("update %d: switcher publishes %v after %d switches, paths %v after %d",
				i, sw.Estimate(), sw.Switches(), p.Estimate(), p.Robustness().Switches)
		}
		if i == 1 && sw.Switches() != 1 {
			t.Fatalf("after a zero update and a +1: %d switches, want 1", sw.Switches())
		}
	}
}
