package server

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/robust"
	"repro/internal/sketch"
	"repro/internal/sketchtest"
)

// TestRegistryConformance runs every sketch × policy × model combination
// the service can host through the full sketchtest battery:
// update/estimate tracking contract, determinism under a fixed seed,
// duplicate-insensitivity where declared, and — for the mergeable static
// combinations — codec round-trips plus the merge laws the /v1/snapshot
// and /v1/merge endpoints depend on. Registering a new base type in bases
// is all it takes to put its entire policy column under the battery. The
// battery streams are insertion-only, which every stream model admits
// (an insertion-only stream is a member of S_λ and of every α-bounded
// class), so non-insertion cells run the same checks against their
// moment-semantics truth.
func TestRegistryConformance(t *testing.T) {
	// Shards: 1 so factories size each instance at the full server-wide δ;
	// the conformance streams are small, so a coarse ε keeps the robust
	// ensembles quick to build. FlipBudget 24 keeps the dense-switching
	// ensembles small at test scale.
	cfg := Config{Shards: 1, Eps: 0.5, Delta: 0.05, N: 1 << 16, Seed: 1, FlipBudget: 24}.withDefaults()
	// The entropy combinations pay for every counter on every update (CC
	// sketches draw a fresh stable variate per counter); shorter streams
	// keep the battery meaningful without dominating the suite's wall
	// clock.
	updates := map[string]int{"cc": 64}
	models := []TenantSpec{
		{},
		{Model: "turnstile"}, // λ inherits the FlipBudget
		{Model: "bounded_deletion", Alpha: 4},
	}
	// expectedInvalid classifies resolve errors on cells the matrix
	// rejects by design; any other resolution failure is a registry
	// regression.
	expectedInvalid := func(err error) bool {
		msg := err.Error()
		return strings.Contains(msg, "monotone") || // ring over non-monotone statistics
			strings.Contains(msg, "insertion-only") || // ring under deletions; non-linear statics under a signed model
			strings.Contains(msg, "no robust theory") // non-Fp robust cells under a non-insertion model
	}
	validNonInsertion := 0
	for _, name := range sketchNames() {
		for _, policy := range Policies() {
			for _, mt := range models {
				req := TenantSpec{Sketch: name, Policy: policy, Model: mt.Model, Alpha: mt.Alpha}
				sp, ts, err := resolve(req, cfg)
				if errors.Is(err, errRobustEntropy) {
					sp, ts, err = inProcessEntropy(req, cfg)
				}
				if err != nil {
					if !expectedInvalid(err) {
						t.Errorf("resolve(%s, %s, model=%s): %v", name, policy, mt.Model, err)
					}
					continue
				}
				runName := sp.Display()
				if ts.Model != "insertion" {
					runName += "+" + ts.Model
					validNonInsertion++
				}
				t.Run(runName, func(t *testing.T) {
					t.Parallel()
					// Accuracy tolerance: 1.5× the configured ε (2× additive,
					// in bits), so the check verifies the estimate is in the
					// right regime — a zero or wildly scaled estimate fails —
					// without turning the δ failure probability into flakes.
					eps := 1.5 * cfg.Eps
					if sp.additive {
						eps = 2 * cfg.Eps
					}
					if ts.Model != "insertion" && sp.robust {
						// Moment semantics: the inner Fp estimator is sized
						// for ε on the norm, so the published moment carries
						// up to (1+ε)²−1 = ε(2+ε) relative error.
						eps = 1.5 * cfg.Eps * (2 + cfg.Eps)
					}
					sketchtest.Run(t, sketchtest.Harness{
						Name:     runName,
						Factory:  sp.factory(ts),
						Codec:    sp.codec,
						Truth:    sp.truth,
						Eps:      eps,
						Additive: sp.additive,
						Updates:  updates[sp.Name],
						Seed:     7,
					})
				})
			}
		}
	}
	// Guard the skip rules: the matrix must keep hosting the paper's
	// non-insertion cells — f2 × {none, switching, paths} for each of
	// turnstile and bounded_deletion, plus the signed static countsketch
	// column. If this count drops, a valid cell is being rejected and the
	// expectedInvalid filter is hiding it.
	if want := 8; validNonInsertion < want {
		t.Errorf("only %d valid non-insertion cells resolved, want at least %d", validNonInsertion, want)
	}
}

// inProcessEntropy is the cell a robust cc spec resolved to before robust
// entropy left the server: the battery keeps holding robust.EntropyProblem
// under every policy it admits to the kit's contract, in process, where
// Theorem 1.10 still runs.
func inProcessEntropy(req TenantSpec, cfg Config) (spec, TenantSpec, error) {
	sp, ts, err := resolve(TenantSpec{Sketch: req.Sketch, Model: req.Model, Alpha: req.Alpha}, cfg)
	if err != nil {
		return spec{}, TenantSpec{}, err
	}
	pol, err := robust.ParsePolicy(req.Policy)
	if err != nil {
		return spec{}, TenantSpec{}, err
	}
	if pol.Budget = ts.FlipBudget; pol.Kind == robust.Paths {
		pol.KCap = pathsKCap
	}
	if err := pol.Check(robust.EntropyProblem()); err != nil {
		return spec{}, TenantSpec{}, err
	}
	sp.Policy, sp.robust, sp.codec = req.Policy, true, nil
	sp.factory = func(ts TenantSpec) sketch.Factory {
		return func(seed int64) sketch.Estimator {
			est, err := pol.Wrap(ts.Eps, ts.Delta, uint64(ts.N), seed, robust.EntropyProblem())
			if err != nil {
				panic(err)
			}
			return est
		}
	}
	return sp, ts, nil
}

// TestRobustCellsMatchConstructors pins three cells to the per-theorem
// constructors update for update: the ring cells of f2, kmv and
// countsketch host exactly NewFp, NewF0 and NewHeavyHitters.
func TestRobustCellsMatchConstructors(t *testing.T) {
	cfg := Config{Shards: 1, Eps: 0.5, Delta: 0.05, N: 1 << 16, Seed: 1, FlipBudget: 24}.withDefaults()
	for _, cell := range []struct {
		sketch, policy string
		ctor           sketch.Estimator
	}{
		{"f2", "ring", robust.NewFp(2, cfg.Eps, cfg.Delta, cfg.N, 9)},
		{"kmv", "ring", robust.NewF0(cfg.Eps, cfg.Delta, cfg.N, 9)},
		{"countsketch", "ring", robust.NewHeavyHitters(cfg.Eps, cfg.Delta, cfg.N, 9)},
	} {
		sp, ts, err := resolve(TenantSpec{Sketch: cell.sketch, Policy: cell.policy}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		viaSpec := sp.factory(ts)(9)
		for i := 0; i < 96; i++ {
			item := uint64(i % 12)
			viaSpec.Update(item, 1)
			cell.ctor.Update(item, 1)
			if a, b := viaSpec.Estimate(), cell.ctor.Estimate(); a != b {
				t.Fatalf("%s spec and its constructor diverged at update %d: %v vs %v", sp.Display(), i+1, a, b)
			}
		}
		if viaSpec.SpaceBytes() != cell.ctor.SpaceBytes() {
			t.Errorf("%s space differs: spec %d vs constructor %d (inner sizing domain mismatch?)",
				sp.Display(), viaSpec.SpaceBytes(), cell.ctor.SpaceBytes())
		}
	}
}

// TestUnknownSketchErrorListsRegistry: the "(have: ...)" list must be
// derived from the registry keys at runtime, so it can never go stale as
// types are added. A spec that names no sketch, or a name outside the
// registry, gets the same answer: there is no default cell and no alias.
func TestUnknownSketchErrorListsRegistry(t *testing.T) {
	for _, bad := range []string{"no-such-sketch", "", "robust-f2"} {
		_, _, err := resolve(TenantSpec{Sketch: bad}, Config{}.withDefaults())
		if err == nil {
			t.Fatalf("sketch %q: expected an unknown-sketch error", bad)
		}
		if want := "(have: " + strings.Join(sketchNames(), ", ") + ")"; !strings.Contains(err.Error(), want) {
			t.Errorf("sketch %q: error %q does not list the registry as %q", bad, err, want)
		}
	}
	if _, _, err := resolve(TenantSpec{Sketch: "f2", Policy: "no-such-policy"}, Config{}.withDefaults()); err == nil {
		t.Fatal("expected an error for an unknown policy")
	} else {
		for _, p := range robust.Kinds() {
			if !strings.Contains(err.Error(), p) {
				t.Errorf("unknown-policy error %q does not mention policy %q", err, p)
			}
		}
	}
}
