package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRoundEpsBasics(t *testing.T) {
	if got := RoundEps(0, 0.1); got != 0 {
		t.Errorf("[0]_ε = %v, want 0", got)
	}
	// Powers of (1+ε) are fixed points (up to float error).
	eps := 0.25
	for l := -10; l <= 10; l++ {
		x := math.Pow(1+eps, float64(l))
		if got := RoundEps(x, eps); math.Abs(got-x)/x > 1e-9 {
			t.Errorf("power (1+ε)^%d not fixed: %v -> %v", l, x, got)
		}
	}
}

func TestRoundEpsSignSymmetry(t *testing.T) {
	prop := func(v float64) bool {
		x := math.Abs(v)
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 || x > 1e100 || x < 1e-100 {
			return true
		}
		return RoundEps(-x, 0.3) == -RoundEps(x, 0.3)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundEpsApproximationGuarantee(t *testing.T) {
	// [x]_ε is a (1 + ε/2)-approximation: max(y/x, x/y) ≤ √(1+ε) ≤ 1+ε/2.
	prop := func(v float64) bool {
		x := math.Abs(v)
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 || x > 1e100 || x < 1e-100 {
			return true
		}
		eps := 0.4
		y := RoundEps(x, eps)
		ratio := y / x
		if ratio < 1 {
			ratio = 1 / ratio
		}
		return ratio <= 1+eps/2+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// next feeds y to the rounding step and returns the held output.
func (r *rounding) next(y float64) float64 {
	r.step(y, RoundEps)
	return r.out
}

func TestRounderHoldsStableValues(t *testing.T) {
	r := rounding{eps: 0.2}
	first := r.next(100)
	// Values within ±20% of the held output must not change it.
	for _, y := range []float64{100, 95, 105, 90, 110} {
		if got := r.next(y); got != first {
			t.Errorf("step(%v) changed output to %v, want held %v", y, got, first)
		}
	}
	if r.flips != 1 {
		t.Errorf("flips = %d, want 1", r.flips)
	}
	// A big jump must re-round.
	if got := r.next(200); got == first {
		t.Error("step(200) kept the stale output")
	}
	if r.flips != 2 {
		t.Errorf("flips = %d, want 2", r.flips)
	}
}

func TestRounderTracksZeroCrossing(t *testing.T) {
	r := rounding{eps: 0.3}
	if got := r.next(0); got != 0 {
		t.Errorf("step(0) = %v, want 0", got)
	}
	if got := r.next(5); got == 0 {
		t.Error("step(5) should move off zero")
	}
	if got := r.next(0); got != 0 {
		t.Errorf("step(0) after positive = %v, want 0", got)
	}
}

func TestRounderLemma33ChangeBudget(t *testing.T) {
	// Feed a noisy (±ε/10) version of a monotone trajectory; the number
	// of output changes must stay within the flip bound of the clean
	// trajectory (Lemma 3.3).
	eps := 0.3
	r := rounding{eps: eps / 2}
	noise := []float64{1, 1.02, 0.99, 1.01, 0.98}
	var clean []float64
	v := 1.0
	for i := 0; i < 400; i++ {
		clean = append(clean, v)
		v *= 1.02
	}
	for i, c := range clean {
		r.next(c * noise[i%len(noise)])
	}
	bound := FlipBoundMonotone(eps/20, clean[len(clean)-1])
	if r.flips > bound {
		t.Errorf("rounding flipped %d times, Lemma 3.3 budget is %d", r.flips, bound)
	}
}

func TestWithinRel(t *testing.T) {
	cases := []struct {
		out, y, eps float64
		want        bool
	}{
		{100, 100, 0.1, true},
		{109, 100, 0.1, true},
		{91, 100, 0.1, true},
		{111, 100, 0.1, false},
		{89, 100, 0.1, false},
		{0, 0, 0.1, true},
		{1, 0, 0.1, false},
		{-95, -100, 0.1, true},
		{-111, -100, 0.1, false},
	}
	for _, c := range cases {
		if got := withinRel(c.out, c.y, c.eps); got != c.want {
			t.Errorf("withinRel(%v, %v, %v) = %v, want %v", c.out, c.y, c.eps, got, c.want)
		}
	}
}

func TestNumRoundedValuesGrows(t *testing.T) {
	if NumRoundedValues(0.1, 1e6) <= NumRoundedValues(0.5, 1e6) {
		t.Error("finer eps must admit more rounded values")
	}
	if NumRoundedValues(0.1, 1e12) <= NumRoundedValues(0.1, 1e6) {
		t.Error("larger range must admit more rounded values")
	}
}
