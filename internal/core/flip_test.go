package core

import (
	"math"
	"testing"

	"repro/internal/stream"
)

func TestFlipNumberBasics(t *testing.T) {
	if got := FlipNumber(nil, 0.1); got != 0 {
		t.Errorf("empty sequence flip number = %d, want 0", got)
	}
	if got := FlipNumber([]float64{5, 5, 5, 5}, 0.1); got != 1 {
		t.Errorf("constant sequence flip number = %d, want 1", got)
	}
	// Doubling with ε = 0.4: each step leaves [(1−ε)y, (1+ε)y], so every
	// element extends the chain.
	seq := []float64{1, 2, 4, 8, 16}
	if got := FlipNumber(seq, 0.4); got != 5 {
		t.Errorf("doubling sequence flip number at ε=0.4 = %d, want 5", got)
	}
	// At ε = 0.5 the interval [(1−ε)y, (1+ε)y] = [y/2, 3y/2] just catches
	// the previous element of a doubling chain, halving the count.
	if got := FlipNumber(seq, 0.5); got != 3 {
		t.Errorf("doubling sequence flip number at ε=0.5 = %d, want 3", got)
	}
	// Small wiggles within (1±ε) never flip.
	if got := FlipNumber([]float64{100, 104, 97, 101}, 0.1); got != 1 {
		t.Errorf("wiggle sequence flip number = %d, want 1", got)
	}
}

func TestFlipNumberMonotoneInEps(t *testing.T) {
	seq := stream.Trajectory(stream.Collect(stream.NewUniform(512, 5000, 3), 0), (*stream.Freq).F0)
	prev := math.MaxInt32
	for _, eps := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
		k := FlipNumber(seq, eps)
		if k > prev {
			t.Errorf("flip number increased with eps: %d > %d at ε=%v", k, prev, eps)
		}
		prev = k
	}
}

func TestEmpiricalF0FlipWithinBound(t *testing.T) {
	// The steepest F0 trajectory (all-distinct stream) must respect
	// Corollary 3.5's bound.
	const m = 20000
	seq := stream.Trajectory(stream.Collect(stream.NewDistinct(m), 0), (*stream.Freq).F0)
	for _, eps := range []float64{0.1, 0.3} {
		emp := FlipNumber(seq, eps)
		bound := FlipBoundFp(0, eps, m, 1)
		if emp > bound {
			t.Errorf("ε=%v: empirical F0 flip number %d exceeds bound %d", eps, emp, bound)
		}
		// The all-distinct stream should come close to the bound (same
		// order): the bound must not be vacuously loose by 10x.
		if bound > 10*emp {
			t.Errorf("ε=%v: bound %d is more than 10x empirical %d", eps, bound, emp)
		}
	}
}

func TestEmpiricalF2FlipWithinBound(t *testing.T) {
	s := stream.Collect(stream.NewZipf(1<<12, 20000, 1.2, 5), 0)
	seq := stream.Trajectory(s, func(f *stream.Freq) float64 { return f.Fp(2) })
	eps := 0.25
	emp := FlipNumber(seq, eps)
	f := stream.NewFreq()
	f.ApplyAll(s)
	bound := FlipBoundFp(2, eps, 1<<12, float64(f.MaxAbs()))
	if emp > bound {
		t.Errorf("empirical F2 flip number %d exceeds bound %d", emp, bound)
	}
}

func TestEmpiricalEntropyExpFlipWithinBound(t *testing.T) {
	s := stream.Collect(stream.NewZipf(1<<10, 10000, 1.3, 7), 0)
	seq := stream.Trajectory(s, func(f *stream.Freq) float64 {
		return math.Pow(2, f.Entropy())
	})
	eps := 0.3
	emp := FlipNumber(seq, eps)
	f := stream.NewFreq()
	f.ApplyAll(s)
	bound := FlipBoundEntropyExp(eps, 1<<10, float64(f.MaxAbs()))
	if emp > bound {
		t.Errorf("empirical 2^H flip number %d exceeds bound %d", emp, bound)
	}
}

func TestEmpiricalBoundedDeletionFlipWithinBound(t *testing.T) {
	const p, alpha = 1.0, 4.0
	g := stream.NewBoundedDeletion(256, 8000, p, alpha, 0.4, 11)
	s := stream.Collect(g, 0)
	seq := stream.Trajectory(s, func(f *stream.Freq) float64 { return f.Lp(p) })
	eps := 0.3
	emp := FlipNumber(seq, eps)
	f := stream.NewFreq()
	f.ApplyAll(s)
	bound := FlipBoundBoundedDeletion(p, alpha, eps, 256+8000, float64(f.MaxAbs()))
	if emp > bound {
		t.Errorf("empirical bounded-deletion flip number %d exceeds bound %d", emp, bound)
	}
}

func TestTurnstileFlipExceedsInsertionOnlyBound(t *testing.T) {
	// The insert-then-delete turnstile stream has flip number ≈ 2× the
	// insertion-only bound — the reason the paper's insertion-only bounds
	// do not transfer to general turnstile streams.
	const n = 4096
	s := stream.Collect(stream.NewInsertDelete(n), 0)
	seq := stream.Trajectory(s, (*stream.Freq).F0)
	eps := 0.2
	emp := FlipNumber(seq, eps)
	insOnly := FlipBoundFp(0, eps, n, 1)
	if emp <= insOnly {
		t.Skipf("turnstile flips %d did not exceed insertion bound %d on this instance", emp, insOnly)
	}
	if emp > 2*insOnly+4 {
		t.Errorf("turnstile flip number %d exceeds twice the insertion-only bound %d", emp, insOnly)
	}
}

// flipBounds tabulates every FlipBound* function as a (eps, n) → bound
// closure, the shared shape of the monotonicity and coverage tests below.
var flipBounds = []struct {
	name  string
	bound func(eps float64, n uint64) int
}{
	{"Monotone", func(eps float64, n uint64) int { return FlipBoundMonotone(eps, float64(n)) }},
	{"Fp(p=0)", func(eps float64, n uint64) int { return FlipBoundFp(0, eps, n, 1) }},
	{"Fp(p=2)", func(eps float64, n uint64) int { return FlipBoundFp(2, eps, n, 8) }},
	{"Lp(p=1)", func(eps float64, n uint64) int { return FlipBoundLp(1, eps, n, 8) }},
	{"Lp(p=2)", func(eps float64, n uint64) int { return FlipBoundLp(2, eps, n, 8) }},
	{"EntropyExp", func(eps float64, n uint64) int { return FlipBoundEntropyExp(eps, n, 8) }},
	{"BoundedDeletion(α=4)", func(eps float64, n uint64) int { return FlipBoundBoundedDeletion(2, 4, eps, n, 8) }},
	// The turnstile class bound is the declared λ itself — constant in
	// (ε, n), which is trivially non-decreasing; it rides the table for
	// positivity coverage.
	{"Turnstile(λ=64)", func(eps float64, n uint64) int { return FlipBoundTurnstile(64) }},
}

// TestFlipBoundsMonotoneInInvEpsAndN: every theoretical flip bound is a
// budget of (1+ε)-growth milestones, so it must be non-decreasing in 1/ε
// (finer accuracy → more milestones) and non-decreasing in the domain
// size n (larger reachable statistic → more milestones).
func TestFlipBoundsMonotoneInInvEpsAndN(t *testing.T) {
	epsGrid := []float64{0.8, 0.4, 0.2, 0.1, 0.05} // decreasing ε = increasing 1/ε
	nGrid := []uint64{1 << 8, 1 << 12, 1 << 16, 1 << 24}
	for _, tc := range flipBounds {
		t.Run(tc.name, func(t *testing.T) {
			prev := 0
			for _, eps := range epsGrid {
				b := tc.bound(eps, 1<<16)
				if b < prev {
					t.Errorf("bound decreased in 1/ε: %d at ε=%v after %d", b, eps, prev)
				}
				if b < 1 {
					t.Errorf("bound %d at ε=%v is not positive", b, eps)
				}
				prev = b
			}
			prev = 0
			for _, n := range nGrid {
				b := tc.bound(0.2, n)
				if b < prev {
					t.Errorf("bound decreased in n: %d at n=%d after %d", b, n, prev)
				}
				prev = b
			}
		})
	}
}

// TestFlipNumberOfMonotoneSequenceWithinBounds builds concrete monotone
// sequences in the regime each bound covers — value range [1, T] with
// T = n·M^p (or its norm/entropy analogue) — and checks the measured
// FlipNumber never exceeds the corresponding bound, including on the
// worst case for the bound: a sequence that climbs by exactly the (1+ε)
// granularity the bound counts.
func TestFlipNumberOfMonotoneSequenceWithinBounds(t *testing.T) {
	// geometric returns the steepest ε-milestone climb through [1, top].
	geometric := func(eps, top float64) []float64 {
		seq := []float64{1}
		for v := 1.0; v <= top; v *= 1 + eps {
			seq = append(seq, v)
		}
		return append(seq, top)
	}
	const n, maxCount = uint64(1 << 10), 8.0
	for _, eps := range []float64{0.1, 0.3, 0.6} {
		cases := []struct {
			name  string
			top   float64
			bound int
		}{
			{"Monotone", float64(n), FlipBoundMonotone(eps, float64(n))},
			{"Fp(p=0)", float64(n), FlipBoundFp(0, eps, n, 1)},
			{"Fp(p=2)", float64(n) * maxCount * maxCount, FlipBoundFp(2, eps, n, maxCount)},
			{"Lp(p=1)", float64(n) * maxCount, FlipBoundLp(1, eps, n, maxCount)},
			{"Lp(p=2)", math.Sqrt(float64(n) * maxCount * maxCount), FlipBoundLp(2, eps, n, maxCount)},
			// 2^H ranges over [1, n] (it is at most the support size).
			{"EntropyExp", float64(n), FlipBoundEntropyExp(eps, n, maxCount)},
			{"BoundedDeletion(α=4)", float64(n) * maxCount * maxCount, FlipBoundBoundedDeletion(2, 4, eps, n, maxCount)},
		}
		for _, tc := range cases {
			seq := geometric(eps, tc.top)
			if emp := FlipNumber(seq, eps); emp > tc.bound {
				t.Errorf("%s ε=%v: flip number %d of the geometric climb exceeds bound %d",
					tc.name, eps, emp, tc.bound)
			}
		}
	}
}

// TestFlipBoundTurnstileMonotoneInLambda: S_λ is defined by its declared
// flip number, so the bound must be the identity on λ ≥ 1 (a larger
// declared class admits more flips) and floored at 1 below.
func TestFlipBoundTurnstileMonotoneInLambda(t *testing.T) {
	cases := []struct {
		name   string
		lambda int
		want   int
	}{
		{"negative floors to 1", -5, 1},
		{"zero floors to 1", 0, 1},
		{"one", 1, 1},
		{"small", 8, 8},
		{"moderate", 64, 64},
		{"large", 1 << 16, 1 << 16},
	}
	prev := 0
	for _, tc := range cases {
		got := FlipBoundTurnstile(tc.lambda)
		if got != tc.want {
			t.Errorf("%s: FlipBoundTurnstile(%d) = %d, want %d", tc.name, tc.lambda, got, tc.want)
		}
		if got < prev {
			t.Errorf("%s: bound decreased in λ: %d after %d", tc.name, got, prev)
		}
		prev = got
	}
}

// TestFlipBoundBoundedDeletionMonotoneInAlpha: Lemma 8.2's bound is
// O(p·α·ε^{−p}·log n) — each (1±ε) movement of ‖f‖_p forces a
// (1 + ε^p/α) growth of ‖h‖_p^p, so a weaker invariant (larger α) must
// admit at least as many flips, at every (p, ε, n) cell of the grid.
func TestFlipBoundBoundedDeletionMonotoneInAlpha(t *testing.T) {
	alphaGrid := []float64{1, 1.5, 2, 4, 8, 32, 1024}
	cells := []struct {
		p   float64
		eps float64
		n   uint64
	}{
		{1, 0.1, 1 << 10},
		{1, 0.3, 1 << 16},
		{1.5, 0.2, 1 << 12},
		{2, 0.1, 1 << 16},
		{2, 0.5, 1 << 20},
	}
	for _, c := range cells {
		prev := 0
		for _, alpha := range alphaGrid {
			b := FlipBoundBoundedDeletion(c.p, alpha, c.eps, c.n, 8)
			if b < 1 {
				t.Errorf("p=%v ε=%v n=%d α=%v: bound %d is not positive", c.p, c.eps, c.n, alpha, b)
			}
			if b < prev {
				t.Errorf("p=%v ε=%v n=%d: bound decreased in α: %d at α=%v after %d",
					c.p, c.eps, c.n, b, alpha, prev)
			}
			prev = b
		}
		// α = 1 (no effective deletions) must not beat the insertion-only
		// moment bound at the same granularity by more than its +2 slack.
		insOnly := FlipBoundFp(c.p, c.eps, c.n, 8)
		atOne := FlipBoundBoundedDeletion(c.p, 1, c.eps, c.n, 8)
		if atOne+2 < insOnly {
			t.Errorf("p=%v ε=%v n=%d: α=1 bound %d far below insertion-only bound %d",
				c.p, c.eps, c.n, atOne, insOnly)
		}
	}
}

func TestFlipBoundMonotoneFormula(t *testing.T) {
	// With T = (1+ε)^k exactly, the bound must be ≥ k (upward powers).
	eps := 0.5
	k := 20
	bound := FlipBoundMonotone(eps, math.Pow(1+eps, float64(k)))
	if bound < k {
		t.Errorf("bound %d below the %d powers it must cover", bound, k)
	}
}

// TestFlipBoundsShareOneClimb holds the four insertion-only bounds, which
// now count their climb through one function, bit-equal to the formulas
// each carried inline before, over a grid of (p, ε, n, maxCount, α) that
// reaches the floor at t = 2 (n = 0 and 1, maxCount 0 and 1).
func TestFlipBoundsShareOneClimb(t *testing.T) {
	floored := func(x float64) float64 { return max(x, 2) }
	fpRef := func(p, eps float64, n uint64, m float64) int {
		x := float64(n)
		if p > 0 {
			x = float64(n) * math.Pow(m, p)
		}
		return int(math.Ceil(math.Log(floored(x))/math.Log1p(eps))) + 2
	}
	lpRef := func(p, eps float64, n uint64, m float64) int {
		if p <= 0 {
			return fpRef(0, eps, n, m)
		}
		x := math.Pow(float64(n)*math.Pow(m, p), 1/p)
		return int(math.Ceil(math.Log(floored(x))/math.Log1p(eps))) + 2
	}
	entropy := func(eps float64, n uint64, m float64) int {
		logn := math.Log2(float64(n)*m + 4)
		tau := eps * eps / (logn * logn)
		return int(math.Ceil(math.Log(float64(n)*m+4)/math.Log1p(tau))) + 2
	}
	deletion := func(p, alpha, eps float64, n uint64, m float64) int {
		x := float64(n) * math.Pow(m, p)
		return int(math.Ceil(math.Log(floored(x))/math.Log1p(math.Pow(eps, p)/alpha))) + 2
	}
	for _, p := range []float64{0, 0.5, 1, 1.5, 2, 3} {
		for _, eps := range []float64{0.001, 0.015, 0.05, 0.1, 0.3, 0.5, 0.9} {
			for _, n := range []uint64{0, 1, 2, 3, 1000, 1 << 20, 1 << 40} {
				for _, m := range []float64{0, 1, 2, 8, 1 << 20} {
					if got, want := FlipBoundFp(p, eps, n, m), fpRef(p, eps, n, m); got != want {
						t.Errorf("FlipBoundFp(%v, %v, %d, %v) = %d, want %d", p, eps, n, m, got, want)
					}
					if got, want := FlipBoundLp(p, eps, n, m), lpRef(p, eps, n, m); got != want {
						t.Errorf("FlipBoundLp(%v, %v, %d, %v) = %d, want %d", p, eps, n, m, got, want)
					}
					if got, want := FlipBoundEntropyExp(eps, n, m), entropy(eps, n, m); got != want {
						t.Errorf("FlipBoundEntropyExp(%v, %d, %v) = %d, want %d", eps, n, m, got, want)
					}
					if p < 1 {
						continue
					}
					for _, alpha := range []float64{1, 2, 16, 1000} {
						if got, want := FlipBoundBoundedDeletion(p, alpha, eps, n, m), deletion(p, alpha, eps, n, m); got != want {
							t.Errorf("FlipBoundBoundedDeletion(%v, %v, %v, %d, %v) = %d, want %d", p, alpha, eps, n, m, got, want)
						}
					}
				}
			}
		}
	}
}
