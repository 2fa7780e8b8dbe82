package robust

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/f0"
	"repro/internal/fp"
	"repro/internal/sketch"
	"repro/internal/sketchtest"
	"repro/internal/stream"
)

func TestParsePolicy(t *testing.T) {
	for _, name := range Kinds() {
		pol, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%s): %v", name, err)
		}
		if pol.String() != name {
			t.Errorf("ParsePolicy(%s).String() = %s", name, pol.String())
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy(bogus) should fail")
	}
}

func TestWrapRejectsRingOverNonMonotone(t *testing.T) {
	// Entropy is not monotone and has no ring override: restarted
	// instances would estimate a suffix whose entropy can differ
	// arbitrarily from the full stream's.
	if _, err := (Policy{Kind: Ring}).Wrap(0.5, 0.05, 1<<16, 1, EntropyProblem()); err == nil {
		t.Fatal("ring over entropy must be rejected")
	}
	if err := (Policy{Kind: Ring}).Check(EntropyProblem()); err == nil {
		t.Fatal("Check must reject ring over entropy")
	}
	// Every other policy composes with it.
	for _, k := range []Kind{None, Switching, Paths} {
		if err := (Policy{Kind: k, Budget: 8}).Check(EntropyProblem()); err != nil {
			t.Errorf("Check(%s over entropy): %v", k, err)
		}
	}
}

func TestWrapParameterValidation(t *testing.T) {
	for _, bad := range []struct{ eps, delta float64 }{
		{0, 0.05}, {1, 0.05}, {-0.1, 0.05}, {0.3, 0}, {0.3, 1},
	} {
		if _, err := (Policy{Kind: Ring}).Wrap(bad.eps, bad.delta, 1<<16, 1, F0Problem()); err == nil {
			t.Errorf("Wrap(eps=%g, delta=%g) should fail", bad.eps, bad.delta)
		}
	}
	if _, err := (Policy{Kind: Paths}).Wrap(0.4, 0.05, 1<<16, 1, Problem{Name: "empty"}); err == nil {
		t.Error("Wrap over a problem with no inner factory should fail")
	}
}

// policyGrid is every policy kind crossed with a fast problem, the
// fixture the conformance and invariant tests below sweep. Budget and
// KCap are test-scale: dense switching stays a small ensemble and the
// paths inner sizing stays laptop-sized.
func policyGrid() []struct {
	name string
	pol  Policy
} {
	return []struct {
		name string
		pol  Policy
	}{
		{"none", Policy{Kind: None}},
		{"switching", Policy{Kind: Switching, Budget: 24}},
		{"ring", Policy{Kind: Ring}},
		{"paths", Policy{Kind: Paths, Budget: 24, KCap: 64}},
	}
}

// TestPolicyConformance runs the sketchtest battery over every policy ×
// inner-problem combination: the policy wrappers must honor the same
// estimator contracts (tracking, fixed-seed determinism, accuracy) as the
// static sketches they wrap.
func TestPolicyConformance(t *testing.T) {
	problems := []struct {
		name  string
		prob  Problem
		truth func(f *stream.Freq) float64
	}{
		{"f2", LpProblem(2), (*stream.Freq).L2},
		{"f0", F0Problem(), (*stream.Freq).F0},
	}
	for _, pc := range policyGrid() {
		for _, pr := range problems {
			pc, pr := pc, pr
			t.Run(pr.name+"+"+pc.name, func(t *testing.T) {
				t.Parallel()
				const eps = 0.5
				sketchtest.Run(t, sketchtest.Harness{
					Name: pr.name + "+" + pc.name,
					Factory: func(seed int64) sketch.Estimator {
						est, err := pc.pol.Wrap(eps, 0.05, 1<<16, seed, pr.prob)
						if err != nil {
							t.Fatalf("Wrap: %v", err)
						}
						return est
					},
					Truth: pr.truth,
					// 1.5× the target ε: the battery verifies the estimate is
					// in the right regime without turning δ into flakes.
					Eps:  1.5 * eps,
					Seed: 3,
				})
			})
		}
	}
}

// isPowerOf reports whether v = base^ℓ for some integer ℓ, up to float
// error — the form every published non-zero output of a rounded wrapper
// must have.
func isPowerOf(v, base float64) bool {
	if v <= 0 {
		return false
	}
	l := math.Log(v) / math.Log(base)
	return math.Abs(l-math.Round(l)) < 1e-6
}

// TestPolicyPublishesOnlyRoundedValues generalizes the ε/2-rounding-grid
// invariant of core/ablation_test.go to every robust policy: the
// information-leak control of the paper's transformations rests on the
// output being confined to the rounding grid, so a policy-wrapped
// estimator that publishes anything off-grid hands the adversary extra
// bits per step. The none policy is the deliberate exception — it is the
// unprotected baseline and publishes raw estimates.
func TestPolicyPublishesOnlyRoundedValues(t *testing.T) {
	const eps = 0.3
	for _, pc := range policyGrid() {
		if pc.pol.Kind == None {
			continue
		}
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			est, err := pc.pol.Wrap(eps, 0.05, 1<<16, 1, F0Problem())
			if err != nil {
				t.Fatalf("Wrap: %v", err)
			}
			g := stream.NewUniform(1024, 4000, 3)
			for {
				u, ok := g.Next()
				if !ok {
					break
				}
				est.Update(u.Item, u.Delta)
				if out := est.Estimate(); out != 0 && !isPowerOf(out, 1+eps/2) {
					t.Fatalf("%s published %v, not 0 or a power of (1+ε/2)", pc.name, out)
				}
			}
		})
	}
}

// TestPolicyRobustnessReporting checks the budget introspection that
// /v1/stats surfaces: every robust policy reports its kind, copies, and
// budget semantics (unbounded for ring, the λ budget for switching and
// paths), and a deliberately tiny dense budget exhausts and says so.
func TestPolicyRobustnessReporting(t *testing.T) {
	feedDistinct := func(est sketch.Estimator, m int) {
		g := stream.NewDistinct(m)
		for {
			u, ok := g.Next()
			if !ok {
				return
			}
			est.Update(u.Item, u.Delta)
		}
	}

	wrap := func(pol Policy) sketch.RobustnessReporter {
		est, err := pol.Wrap(0.4, 0.05, 1<<16, 1, F0Problem())
		if err != nil {
			t.Fatalf("Wrap(%s): %v", pol, err)
		}
		rr, ok := est.(sketch.RobustnessReporter)
		if !ok {
			t.Fatalf("%s-wrapped estimator does not report robustness", pol)
		}
		return rr
	}

	ring := wrap(Policy{Kind: Ring})
	feedDistinct(ring.(sketch.Estimator), 2000)
	r := ring.Robustness()
	if r.Budget != -1 || r.Remaining() != -1 || r.Exhausted {
		t.Errorf("ring robustness = %+v, want unbounded never-exhausted ring", r)
	}
	if r.Copies != core.RingCopies(0.4) {
		t.Errorf("ring copies = %d, want RingCopies(0.4) = %d", r.Copies, core.RingCopies(0.4))
	}
	if r.Switches == 0 {
		t.Error("ring consumed no switches on a growing distinct stream")
	}

	dense := wrap(Policy{Kind: Switching, Budget: 4})
	feedDistinct(dense.(sketch.Estimator), 2000)
	if r := dense.Robustness(); !r.Exhausted || r.Remaining() != 0 || r.Budget != 4 {
		t.Errorf("dense budget-4 robustness = %+v, want exhausted with remaining 0", r)
	}

	paths := wrap(Policy{Kind: Paths, Budget: 64, KCap: 32})
	feedDistinct(paths.(sketch.Estimator), 500)
	if r := paths.Robustness(); r.Copies != 1 || r.Budget != 64 || r.Exhausted {
		t.Errorf("paths robustness = %+v, want single-copy budget-64 unexhausted", r)
	}

	// The none policy is deliberately opaque: no reporter.
	est, err := (Policy{Kind: None}).Wrap(0.4, 0.05, 1<<16, 1, F0Problem())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := est.(sketch.RobustnessReporter); ok {
		t.Error("none-wrapped estimator should not report robustness")
	}
}

// TestThinConstructorsMatchPolicyLayer pins the refactor: the per-theorem
// constructors must be exactly the corresponding policy instances, update
// for update.
func TestThinConstructorsMatchPolicyLayer(t *testing.T) {
	viaCtor := NewFp(2, 0.4, 0.05, 1<<16, 9)
	viaPolicy, err := (Policy{Kind: Ring}).Wrap(0.4, 0.05, 1<<16, 9, LpProblem(2))
	if err != nil {
		t.Fatal(err)
	}
	g := stream.NewZipf(1<<10, 3000, 1.2, 5)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		viaCtor.Update(u.Item, u.Delta)
		viaPolicy.Update(u.Item, u.Delta)
		if a, b := viaCtor.Estimate(), viaPolicy.Estimate(); a != b {
			t.Fatalf("NewFp and Ring.Wrap diverged: %v vs %v", a, b)
		}
	}
}

// batchCounter counts the UpdateBatch calls that reach an F2 sketch.
type batchCounter struct {
	*fp.F2Sketch
	batches *int
}

func (c batchCounter) UpdateBatch(b []sketch.Update) {
	*c.batches++
	c.F2Sketch.UpdateBatch(b)
}

// TestAdapterForwardsOptionalInterfaces: the single estimate-mapping
// adapter sits between every wrapper and its inner sketches, so the
// optional surfaces the wrappers probe for by type assertion must pass
// through it — the trailing copies' batch catch-up down to the inner F2
// sketch — and it must add no per-coordinate read of its own.
func TestAdapterForwardsOptionalInterfaces(t *testing.T) {
	batches := 0
	prob := LpProblem(2)
	prob.Inner = func(eps0, lnInvDelta float64, n uint64, kCap int, seed int64) sketch.Estimator {
		f2 := fp.NewF2(fp.SizeF2Ln(eps0, lnInvDelta), rand.New(rand.NewSource(seed)))
		return mapAdapter{batchCounter{f2, &batches}, math.Sqrt}
	}
	est := mustWrap(t, Policy{Kind: Switching, Budget: 64}, 0.5, 0.05, 1<<16, 3, prob)
	// A switch catches up one instance, the new active one. Only a drain —
	// forced here by feeding past the lag bound, on four items so the norm
	// climbs slowly enough to leave trailing copies — feeds several at once.
	drained := false
	for i := uint64(0); i < 20000; i++ {
		before := batches
		est.Update(i%4, 1)
		drained = drained || batches-before > 1
	}
	if !drained {
		t.Error("f2+switching: no drain fed the trailing copies their backlog through UpdateBatch")
	}
	if _, ok := est.(sketch.PointQuerier); ok {
		t.Error("f2+switching answers point queries: a wrapper's only read is its rounded output")
	}

	// Over an inner with none of the optional surfaces the adapter
	// degrades instead of panicking.
	plain := mapAdapter{f0.NewExact(), math.Sqrt}
	plain.UpdateBatch([]sketch.Update{{Item: 1, Delta: 1}, {Item: 2, Delta: 1}, {Item: 3, Delta: 1}, {Item: 4, Delta: 1}})
	if got := plain.Estimate(); got != 2 {
		t.Errorf("adapter over exact F0: estimate %v after a 4-item batch, want sqrt(4)", got)
	}
	if plain.CoalesceInvariant() || plain.Robustness() != (sketch.Robustness{}) {
		t.Error("adapter over a plain inner must answer zero values for the surfaces it lacks")
	}
}
