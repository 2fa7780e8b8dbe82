package adversary

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/robust"
	"repro/internal/stream"
)

// TestPumpRespectsBoundedDeletionInvariant: every prefix of a Pump stream
// built with a finite α satisfies Definition 8.1 (‖f‖₂² ≥ ‖h‖₂²/α), and
// no count ever goes negative — so the stream really is a member of the
// class the tenant under attack declared.
func TestPumpRespectsBoundedDeletionInvariant(t *testing.T) {
	for _, alpha := range []float64{1.5, 4, math.Inf(1)} {
		adv := NewPump(3000, alpha, 21)
		f := stream.NewFreq()
		h := stream.NewFreq()
		last := 0.0
		for i := 0; ; i++ {
			u, ok := adv.Next(last, i)
			if !ok {
				break
			}
			f.Apply(u)
			habs := u
			if habs.Delta < 0 {
				habs.Delta = -habs.Delta
			}
			h.Apply(habs)
			if c := f.Count(u.Item); c < 0 {
				t.Fatalf("α=%v: count of item %d went negative (%d) at step %d", alpha, u.Item, c, i)
			}
			if !math.IsInf(alpha, 1) {
				if fp, hp := f.Fp(2), h.Fp(2); fp < hp/alpha-1e-9 {
					t.Fatalf("α=%v: Definition 8.1 violated at step %d: ‖f‖₂²=%v < ‖h‖₂²/α=%v", alpha, i, fp, hp/alpha)
				}
			}
			last = f.Fp(2) // play a truthful oracle; structure check only
		}
	}
}

// TestPumpExceedsInsertionOnlyFlipBound: the recorded truth trajectory of
// a Pump run has an F2 flip number far above the insertion-only bound of
// Proposition 3.4 for the same length and ε — the quantitative reason an
// estimator sized for insertion-only streams has no guarantee left under
// deletions, and the robust wrappers must be told the model.
func TestPumpExceedsInsertionOnlyFlipBound(t *testing.T) {
	const m = 4000
	const eps = 0.5 / 20 // the ε₀ the policy layer sizes flips at, for ε=0.5
	adv := NewPump(m, math.Inf(1), 3)
	f := stream.NewFreq()
	truths := make([]float64, 0, m)
	last := 0.0
	for i := 0; ; i++ {
		u, ok := adv.Next(last, i)
		if !ok {
			break
		}
		f.Apply(u)
		last = f.Fp(2)
		truths = append(truths, last)
	}
	got := core.FlipNumber(truths, eps)
	insertionOnly := core.FlipBoundFp(2, eps, m, 1)
	if got <= 2*insertionOnly {
		t.Errorf("pump trajectory flips %d times at ε=%v; want far above the insertion-only bound %d", got, eps, insertionOnly)
	}
}

// TestPumpCannotBreakTurnstileFp: the same adversary run against a
// turnstile-model robust Fp whose declared λ covers the trajectory stays
// inside the moment-error envelope — Theorem 1.6 end to end, with the
// adversary adapting to every published output.
func TestPumpCannotBreakTurnstileFp(t *testing.T) {
	const (
		m   = 1200
		eps = 0.5
	)
	prob, err := robust.LpProblemFor(2, robust.TurnstileModel(m))
	if err != nil {
		t.Fatal(err)
	}
	alg, err := robust.Policy{Kind: robust.Paths, StreamLen: 2 * m, KCap: 3000}.Wrap(eps, 0.001, m, 11, prob)
	if err != nil {
		t.Fatal(err)
	}
	adv := NewPump(m, math.Inf(1), 13)
	// The published statistic is the moment ‖f‖₂²; a (1±ε₀) norm-scale
	// inner error is ≈ (1±2ε₀) on the moment, and the output rounding adds
	// ε/2, so the end-to-end envelope is wider than ε itself.
	res := game.Run(alg, adv, func(f *stream.Freq) float64 { return f.Fp(2) },
		game.RelCheck(1.4), game.Config{MaxSteps: m, Warmup: 64})
	if res.Broken {
		t.Fatalf("pump broke the turnstile robust F2 at step %d: est %v vs truth %v",
			res.BrokenAt, res.BrokenEst, res.BrokenTru)
	}
}
