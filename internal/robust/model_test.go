package robust

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fp"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// oldTurnstileFp is the hand-built Theorem 1.6 construction for p = 2
// (the bucketed AMS inner sketch, whose Estimate is the F2 moment
// directly), kept as the pin the policy layer must match
// update-for-update.
func oldTurnstileFp(p, eps float64, lambda int, m uint64, maxT float64, kCap int, seed int64) *core.Paths {
	if p != 2 {
		panic("oldTurnstileFp pins the p = 2 construction")
	}
	lnInvDelta0 := core.PathsLnInvDelta(m, lambda, eps, maxT, math.Log(1000))
	s := fp.SizeF2Ln(eps/6, lnInvDelta0)
	s.Rows = oddReps(s.Rows, s.Width, kCap)
	inner := fp.NewF2(s, rand.New(rand.NewSource(seed)))
	return core.NewPaths(eps, lambda, inner)
}

// momentRef publishes ‖f‖_p^p from an Indyk sketch without going through
// the package's adapter, so the hand-built references stay independent of
// the code they pin.
type momentRef struct{ *fp.Indyk }

func (m momentRef) Estimate() float64 { return m.Moment() }

// oldBoundedDeletionFp is the pre-model hand-built Theorem 1.11
// construction, kept verbatim as the pin.
func oldBoundedDeletionFp(p, alpha, eps float64, n, m uint64, maxCount float64, kCap int, seed int64) *core.Paths {
	lambda := core.FlipBoundBoundedDeletion(p, alpha, eps/20, n, maxCount)
	t := float64(n) * math.Pow(maxCount, p)
	lnInvDelta0 := core.PathsLnInvDelta(m, lambda, eps, t, math.Log(1000))
	k := int(math.Ceil(3 / (eps / 6 * eps / 6) * 0.3 * lnInvDelta0 * math.Log2E))
	if kCap > 0 && k > kCap {
		k = kCap
	}
	inner := fp.NewIndyk(p, k, rand.New(rand.NewSource(seed)))
	return core.NewPaths(eps, lambda, momentRef{inner})
}

// pinIdentical drives both estimators through the same stream and requires
// bitwise-identical estimates at every step plus identical space.
func pinIdentical(t *testing.T, name string, viaModel sketch.Estimator, viaOld *core.Paths, gen stream.Generator) {
	t.Helper()
	step := 0
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		viaModel.Update(u.Item, u.Delta)
		viaOld.Update(u.Item, u.Delta)
		a, b := viaModel.Estimate(), viaOld.Estimate()
		if a != b {
			t.Fatalf("%s: estimates diverge at step %d: model-API %v vs hand-built %v", name, step, a, b)
		}
		step++
	}
	if a, b := viaModel.SpaceBytes(), viaOld.SpaceBytes(); a != b {
		t.Errorf("%s: space diverges: model-API %d vs hand-built %d bytes", name, a, b)
	}
}

func TestTurnstileFpAliasMatchesConstructor(t *testing.T) {
	// The misc.go experiment cell: p=2 over the insert-then-delete hard
	// instance, with the declared flip budget of the class.
	const n = 600
	eps := 0.5
	seq := stream.Trajectory(stream.Collect(stream.NewInsertDelete(n), 0), func(f *stream.Freq) float64 { return f.Fp(2) })
	lambda := core.FlipNumber(seq, eps/20) + 8
	// maxT overrides the problem's natural value bound to match the
	// hand-built sizing exactly.
	prob := mustLpProblemFor(t, 2, TurnstileModel(lambda))
	prob.MaxValue = func(uint64, float64) float64 { return n }
	viaModel := mustWrap(t, Policy{Kind: Paths, StreamLen: 2 * n, KCap: 3000}, eps, 0.001, 2*n, 7, prob)
	viaOld := oldTurnstileFp(2, eps, lambda, 2*n, float64(n), 3000, 7)
	pinIdentical(t, "turnstile", viaModel, viaOld, stream.NewInsertDelete(n))

	// Wrap installs the declared budget, so robustness introspection
	// reports the class promise.
	rb := viaModel.(sketch.RobustnessReporter).Robustness()
	if rb.Budget != lambda {
		t.Errorf("turnstile: flip budget %d not installed, got %d", lambda, rb.Budget)
	}
}

func TestBoundedDeletionFpAliasMatchesConstructor(t *testing.T) {
	// The misc.go experiment cell: p=1 bounded-deletion streams across a
	// spread of α, uncapped and capped.
	eps := 0.5
	for _, alpha := range []float64{1.5, 4} {
		viaModel := mustWrap(t, Policy{Kind: Paths, StreamLen: 4000, MaxCount: 4000, KCap: 2500}, eps, 0.001, 256, 17, mustLpProblemFor(t, 1, BoundedDeletionModel(alpha)))
		viaOld := oldBoundedDeletionFp(1, alpha, eps, 256, 4000, 4000, 2500, 17)
		pinIdentical(t, "bounded-deletion", viaModel, viaOld, stream.NewBoundedDeletion(256, 4000, 1, alpha, 0.4, 19))
	}
}

func TestLpProblemForValidation(t *testing.T) {
	cases := []struct {
		name string
		p    float64
		m    Model
		ok   bool
	}{
		{"insertion p=2", 2, InsertionModel(), true},
		{"turnstile p=2 λ=8", 2, TurnstileModel(8), true},
		{"turnstile λ=0", 2, TurnstileModel(0), false},
		{"turnstile stray alpha", 2, Model{Kind: ModelTurnstile, Lambda: 4, Alpha: 2}, false},
		{"bounded-deletion p=1 α=4", 1, BoundedDeletionModel(4), true},
		{"bounded-deletion p=0.5", 0.5, BoundedDeletionModel(4), false},
		{"bounded-deletion α<1", 1, BoundedDeletionModel(0.5), false},
		{"bounded-deletion α=NaN", 1, BoundedDeletionModel(math.NaN()), false},
		{"bounded-deletion α=+Inf", 1, BoundedDeletionModel(math.Inf(1)), false},
		{"insertion stray lambda", 2, Model{Lambda: 3}, false},
	}
	for _, tc := range cases {
		_, err := LpProblemFor(tc.p, tc.m)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestRingRejectsNonInsertionModels(t *testing.T) {
	for _, m := range []Model{TurnstileModel(8), BoundedDeletionModel(4)} {
		prob, err := LpProblemFor(2, m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if err := (Policy{Kind: Ring}).Check(prob); err == nil {
			t.Errorf("%s: ring must be rejected for non-insertion models", m)
		}
		for _, pol := range []Policy{{Kind: None}, {Kind: Switching}, {Kind: Paths}} {
			if err := pol.Check(prob); err != nil {
				t.Errorf("%s: policy %s unexpectedly rejected: %v", m, pol, err)
			}
		}
	}
}

// TestTurnstileModelHoldsEnvelopeOnDeletions: the model-API turnstile
// estimator, wrapped exactly as a tenant builds it, stays within its ε
// envelope of the true moment on a deletion-heavy oblivious stream — the
// library-level counterpart of the e2e HTTP test.
func TestTurnstileModelHoldsEnvelopeOnDeletions(t *testing.T) {
	const n = 400
	eps := 0.5
	prob, err := LpProblemFor(2, TurnstileModel(64))
	if err != nil {
		t.Fatal(err)
	}
	est, err := Policy{Kind: Paths, StreamLen: 2 * n, KCap: 4096}.Wrap(eps, 0.05, n, 5, prob)
	if err != nil {
		t.Fatal(err)
	}
	f := stream.NewFreq()
	gen := stream.NewInsertDelete(n)
	step := 0
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		est.Update(u.Item, u.Delta)
		f.Apply(u)
		step++
		if step < 50 {
			continue
		}
		truth := f.Fp(2)
		got := est.Estimate()
		// Moment semantics: (1±ε) on the norm is (1±ε)² on F2; allow the
		// rounding layer's extra ε/2 on top.
		if truth > 0 && math.Abs(got-truth) > 1.4*truth {
			t.Fatalf("step %d: estimate %v strays from moment %v", step, got, truth)
		}
	}
}
