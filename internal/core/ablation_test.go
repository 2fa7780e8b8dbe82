package core

import (
	"math"
	"testing"

	"repro/internal/f0"
	"repro/internal/stream"
)

// isPowerOf reports whether v = base^ℓ for some integer ℓ, up to float
// error — the form every published (non-zero) output must have.
func isPowerOf(v, base float64) bool {
	if v <= 0 {
		return false
	}
	l := math.Log(v) / math.Log(base)
	return math.Abs(l-math.Round(l)) < 1e-6
}

// TestSwitcherPublishesOnlyRoundedValues: the information-leak control of
// Algorithm 1 rests on the output being confined to the ε/2-rounding grid;
// anything else would hand the adversary extra bits per step.
func TestSwitcherPublishesOnlyRoundedValues(t *testing.T) {
	const eps = 0.3
	sw := NewSwitcher(eps, RingCopies(eps), true, 1, exactF0Factory)
	g := stream.NewUniform(1024, 5000, 3)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		sw.Update(u.Item, u.Delta)
		if out := sw.Estimate(); out != 0 && !isPowerOf(out, 1+eps/2) {
			t.Fatalf("published %v is not 0 or a power of (1+ε/2)", out)
		}
	}
}

// TestPathsPublishesOnlyRoundedValues: same invariant for the
// computation-paths wrapper (Definition 3.7).
func TestPathsPublishesOnlyRoundedValues(t *testing.T) {
	const eps = 0.3
	p := NewPaths(eps, 64, f0.NewExact())
	g := stream.NewUniform(1024, 5000, 3)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		p.Update(u.Item, u.Delta)
		if out := p.Estimate(); out != 0 && !isPowerOf(out, 1+eps/2) {
			t.Fatalf("published %v is not 0 or a power of (1+ε/2)", out)
		}
	}
}

// TestRingVsDenseCopyAblation: the Theorem 4.1 optimization replaces the
// Θ(ε⁻¹ log n) dense copy count with Θ(ε⁻¹ log ε⁻¹) — independent of n.
func TestRingVsDenseCopyAblation(t *testing.T) {
	eps := 0.2
	ring := RingCopies(eps)
	for _, n := range []uint64{1 << 16, 1 << 32, 1 << 48} {
		dense := FlipBoundFp(0, eps/20, n, 1)
		if ring >= dense {
			t.Errorf("ring copies %d not below dense flip bound %d at n=2^%d",
				ring, dense, int(math.Log2(float64(n))))
		}
	}
	// And the gap widens with n.
	if FlipBoundFp(0, eps/20, 1<<48, 1) <= FlipBoundFp(0, eps/20, 1<<16, 1) {
		t.Error("dense bound should grow with n")
	}
}

// TestRoundingGranularityAblation: finer rounding granularity means more
// published changes (more instance burn) on the same stream — the
// trade-off the ε/2 choice balances.
func TestRoundingGranularityAblation(t *testing.T) {
	run := func(eps float64) int {
		sw := NewSwitcher(eps, RingCopies(eps), true, 1, exactF0Factory)
		g := stream.NewDistinct(20000)
		for {
			u, ok := g.Next()
			if !ok {
				return sw.Switches()
			}
			sw.Update(u.Item, u.Delta)
		}
	}
	coarse, fine := run(0.8), run(0.1)
	if fine <= coarse {
		t.Errorf("finer rounding should switch more: ε=0.1 gave %d vs ε=0.8 gave %d", fine, coarse)
	}
}

func BenchmarkSwitcherRingUpdate(b *testing.B) {
	sw := NewSwitcher(0.3, RingCopies(0.3), true, 1, exactF0Factory)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Update(uint64(i), 1)
	}
}

func BenchmarkSwitcherDenseUpdate(b *testing.B) {
	sw := NewSwitcher(0.3, FlipBoundFp(0, 0.015, 1<<20, 1), false, 1, exactF0Factory)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Update(uint64(i), 1)
	}
}

func BenchmarkPathsUpdate(b *testing.B) {
	p := NewPaths(0.3, 64, f0.NewExact())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Update(uint64(i), 1)
	}
}

func BenchmarkRoundEps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RoundEps(float64(i%100000)+1, 0.25)
	}
}
