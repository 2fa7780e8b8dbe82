// Package robust assembles the adversarially robust streaming algorithms
// of the paper from the static sketches (internal/f0, internal/fp,
// internal/heavyhitters, internal/entropy) and the generic transformations
// of internal/core.
//
// There is one construction path: a Policy names a transformation (None,
// Switching, Ring, Paths) and Policy.Wrap applies it to a Problem — a
// per-statistic bundle of inner-sketch factory, ε₀ divisor, flip bound and
// value range. Wrap is the only caller of core.NewSwitcher and
// core.NewPaths, which makes the paper's central claim literal: the
// transformations are generic, every theorem is a (policy kind, problem)
// pair, and every wrapper exposes its flip-budget consumption through
// sketch.RobustnessReporter.
//
//	Theorem       Policy kind  Problem
//	1.1  / 5.1    Ring         F0Problem()                               = NewF0
//	1.2  / 5.4    Paths        F0FastProblem()                           f0.Alg2: Horner hashing below d = 8 192, multipoint from it
//	1.4  / 4.1    Ring         LpProblem(p), 0 < p ≤ 2                   = NewFp
//	1.5  / 4.2    Paths        LpProblem(p)
//	1.6  / 4.3    Paths        LpProblemFor(p, TurnstileModel(λ))
//	1.7  / 4.4    Paths        FpBigProblem(p, reps, rows), p > 2
//	1.9  / 6.5    Ring         HHL2Problem() (its NewRing)               = NewHeavyHitters
//	1.10 / 7.3    Switching    EntropyProblem(), Budget λ                = NewEntropy
//	1.11 / 8.3    Paths        LpProblemFor(p, BoundedDeletionModel(α))
//	Prop. 3.4     Ring         cascaded.Problem(p, k, cols)
//
// The Section 10 constructions (NewCryptoF0, NewOracleF0; Theorem 10.1)
// robustify through a keyed item mapping instead of a policy and stand
// apart: one wrapper, MappedF0, behind both.
//
// Every wrapper publishes its rounded estimate and its Robustness state,
// and nothing per coordinate (Lemmas 3.6 and 3.8 bound the adversary's view
// by the rounded outputs) — except the one the paper proves: HeavyHitters
// answers Query, TopK and Set from the frozen ring of Theorem 6.5.
//
// Both places where copies trail the stream — the Switcher's non-active
// instances and the Theorem 6.5 CountSketch ring of HeavyHitters — keep
// them in a core.Lagged: one bounded lag buffer, batch catch-up, and
// outputs update-for-update identical to the synchronous formulation.
// A wrapper has no batch method (sketch.ApplyBatch is the one batch loop);
// Policy.StateBytes prices one unbuilt, from the plan Wrap builds it by.
//
// Sizing philosophy: Policy carries the robustness budget (flip number /
// copies) explicitly where the paper's worst-case value is impractically
// large at laptop scale, with the Problem's FlipBound supplying the
// worst-case default. This mirrors the paper's own Theorem 4.3, which is
// parameterized by the class S_λ of streams with flip number at most λ;
// Robustness().Exhausted surfaces budget overruns instead of failing
// silently.
package robust
