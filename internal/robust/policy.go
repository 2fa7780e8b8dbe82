package robust

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/entropy"
	"repro/internal/f0"
	"repro/internal/fp"
	"repro/internal/heavyhitters"
	"repro/internal/sketch"
)

// Kind names one of the paper's robustness transformations. The zero
// value is None (no wrapper: the static algorithm itself).
type Kind uint8

const (
	// None hosts the static algorithm with no robustness wrapper — the
	// oblivious-adversary baseline every attack experiment compares
	// against.
	None Kind = iota

	// Switching is dense sketch switching (Algorithm 1): λ independent
	// instances, each abandoned after its value is used once. Space
	// multiplies by the flip number λ; δ divides by λ. Use when λ is
	// moderate or the statistic is not monotone (entropy).
	Switching

	// Ring is sketch switching with the restart optimization of
	// Theorem 4.1: Θ(ε⁻¹·log ε⁻¹) instances recycled modularly, valid
	// only for monotone statistics on insertion-only streams. The default
	// transformation for Fp and F0 (Theorems 1.1 / 1.4).
	Ring

	// Paths is the computation-paths reduction (Lemma 3.8 / Theorem 1.5):
	// one instance sized at δ₀ = δ / (C(m,λ)·S^λ), published through
	// ε/2-rounding. Preferable to switching in the very-small-δ regime —
	// space grows with ln(1/δ₀) ≈ λ·log m instead of multiplying by λ
	// copies.
	Paths
)

var kindNames = map[Kind]string{None: "none", Switching: "switching", Ring: "ring", Paths: "paths"}

// String returns the kind's registry name (none, switching, ring, paths).
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds lists every policy kind name, sorted for error messages.
func Kinds() []string {
	out := make([]string, 0, len(kindNames))
	for _, s := range kindNames {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ParseKind resolves a policy kind name.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return None, fmt.Errorf("unknown robustness policy %q (have: %s)", s, strings.Join(Kinds(), ", "))
}

// Policy is a named, parameterized robustness transformation. Wrap
// composes it with any Problem, so the full sketch × policy matrix is
// reachable from a single constructor instead of one bespoke constructor
// per (problem, transformation) pair.
type Policy struct {
	// Kind selects the transformation.
	Kind Kind

	// Budget overrides the worst-case flip bound λ used for the dense
	// switching copy count and the paths union bound. The honest bounds
	// are impractically large at laptop scale for some problems (entropy's
	// Õ(ε⁻²·log³n) in particular); a domain-informed budget keeps the
	// ensemble runnable, and Robustness().Exhausted surfaces overruns.
	// Zero means the problem's worst-case bound.
	Budget int

	// StreamLen is the stream length m entering the paths C(m, λ) term;
	// zero defaults to the universe size n passed to Wrap.
	StreamLen uint64

	// MaxCount bounds ‖f‖∞ for the flip bounds; zero defaults to 1
	// (distinct-item streams).
	MaxCount float64

	// KCap caps the inner sketch's total counter count so the paths
	// sizing (whose ln(1/δ₀) routinely reaches thousands of median
	// repetitions) stays runnable: the accuracy dimension (width,
	// Θ(ε₀⁻²)) is kept and the δ-boosting repetition dimension shrinks to
	// fit, flooring at its minimum. Zero means the honest sizing.
	KCap int
}

// ParsePolicy resolves a policy name to a Policy with default parameters.
func ParsePolicy(s string) (Policy, error) {
	k, err := ParseKind(s)
	return Policy{Kind: k}, err
}

// String returns the policy's kind name.
func (pol Policy) String() string { return pol.Kind.String() }

// Problem packages the per-problem sizing a policy needs: how to build a
// statically correct inner instance at a given accuracy and (log-form)
// failure probability, the statistic's flip-number bound, and its value
// range. Everything else — copy counts, δ budgets, rounding, union
// bounds — is the policy's job, which is what makes the transformations
// generic (the paper's central claim).
type Problem struct {
	// Name labels errors.
	Name string

	// Monotone marks statistics that only grow on insertion-only streams
	// (all Fp, F0). Ring mode is only sound for these: a restarted
	// instance estimates a stream suffix, which for a monotone statistic
	// misses at most an ε/100 mass fraction by reuse time (Theorem 4.1)
	// but can be arbitrarily wrong otherwise (entropy).
	Monotone bool

	// Model is the stream class the problem's flip bound (and the static
	// guarantee of its inner instances) is sound for. The zero value is
	// the insertion-only model, so pre-model problems are unchanged.
	// Non-insertion models reject ring mode in Check: the restart
	// optimization tracks a suffix, which deletions can make arbitrarily
	// wrong even for Monotone-flagged statistics.
	Model Model

	// EpsScale converts the caller's ε into the multiplicative domain the
	// rounding machinery works in, applied by Wrap before anything else.
	// Zero means 1 (already multiplicative). Entropy sets ln 2: its ε is
	// additive bits, and an additive-ε guarantee on H = log₂ g is a
	// multiplicative (1 ± ε·ln 2) guarantee on g = 2^H.
	EpsScale float64

	// Eps0Div divides the (scaled) target ε to get the inner instances'
	// accuracy ε₀ (the paper's proof constants are ε/20; the repository's
	// coarser divisors are validated empirically by robust_test.go).
	Eps0Div float64

	// Inner builds a statically correct instance with accuracy eps0 and
	// failure probability exp(−lnInvDelta) over universe [n], seeded with
	// seed. The failure probability arrives in log form because the paths
	// sizing exceeds float64's exponent range as a raw probability. kCap,
	// when positive, caps the instance's total counter count (see
	// Policy.KCap).
	Inner func(eps0, lnInvDelta float64, n uint64, kCap int, seed int64) sketch.Estimator

	// FlipBound bounds the flip number λ_{eps}(g) on insertion-only
	// streams over [n] with counts ≤ maxCount.
	FlipBound func(eps float64, n uint64, maxCount float64) int

	// MaxValue bounds the statistic (the T of the rounded-value count in
	// the paths union bound).
	MaxValue func(n uint64, maxCount float64) float64

	// Publish optionally transforms the wrapper's rounded output into the
	// published estimate (entropy publishes log₂ of the tracked 2^H).
	Publish func(float64) float64

	// NewRing optionally replaces the generic ring construction with a
	// problem-specific one (heavy hitters couples the norm ring to a
	// frozen CountSketch ring, Theorem 6.5).
	NewRing func(eps, delta float64, n uint64, seed int64) sketch.Estimator

	// InnerBytes optionally prices copies instances of what Inner would
	// build, by the same sizing and without building them: the most they
	// keep resident once filled — signed counters at their widened 8 bytes,
	// which one large client delta makes true of every copy. RingBytes does
	// the same for NewRing.
	InnerBytes func(eps0, lnInvDelta float64, n uint64, kCap, copies int) float64
	RingBytes  func(eps, delta float64, n uint64) float64
}

// Check reports whether the policy can soundly wrap the problem, without
// building anything. Wrap performs the same validation.
func (pol Policy) Check(prob Problem) error {
	if prob.Inner == nil {
		return fmt.Errorf("robust: problem %q has no inner factory", prob.Name)
	}
	if err := prob.Model.Validate(); err != nil {
		return err
	}
	switch pol.Kind {
	case None, Switching, Paths:
		return nil
	case Ring:
		if prob.Model.Kind != ModelInsertion {
			return fmt.Errorf("robust: policy ring requires insertion-only streams (%s admits deletions, under which a restarted instance's suffix view is unbounded) — use switching or paths", prob.Model)
		}
		if !prob.Monotone && prob.NewRing == nil {
			return fmt.Errorf("robust: policy ring requires a monotone statistic (%s is not; restarted instances would track a suffix) — use switching or paths", prob.Name)
		}
		return nil
	}
	return fmt.Errorf("robust: unknown policy kind %d", pol.Kind)
}

// plan is what a policy asks of a problem before anything is built: the
// target ε in the problem's domain; how many inner instances at once, for
// what flip budget (0 under none and ring); each one's ε₀ and ln(1/δ₀).
type plan struct {
	eps, eps0, lnInvDelta float64
	copies, lambda        int
}

func (pol Policy) plan(eps, delta float64, n uint64, prob Problem) (plan, error) {
	if prob.EpsScale > 0 {
		eps *= prob.EpsScale
	}
	if eps <= 0 || eps >= 1 {
		return plan{}, fmt.Errorf("robust: policy %s needs 0 < eps < 1 (after the problem's domain scaling), got %g", pol, eps)
	}
	if delta <= 0 || delta >= 1 {
		return plan{}, fmt.Errorf("robust: policy %s needs 0 < delta < 1, got %g", pol, delta)
	}
	if err := pol.Check(prob); err != nil {
		return plan{}, err
	}
	maxCount := pol.MaxCount
	if maxCount <= 0 {
		maxCount = 1
	}
	budget := func(flipEps float64) int {
		if pol.Budget > 0 {
			return pol.Budget
		}
		return prob.FlipBound(flipEps, n, maxCount)
	}
	pl := plan{eps: eps, copies: 1, eps0: eps / max(prob.Eps0Div, 1), lnInvDelta: math.Log(1 / delta)}
	switch pol.Kind {
	case None:
		// The static algorithm at the full (eps, delta) target: the
		// oblivious baseline, no rounding, no ensemble.
		pl.eps0 = eps
	case Ring:
		pl.copies = core.RingCopies(eps)
		pl.lnInvDelta = math.Log(float64(pl.copies) / delta)
	case Switching:
		pl.lambda = budget(eps / 8)
		pl.copies = pl.lambda
		pl.lnInvDelta = math.Log(float64(pl.lambda) / delta)
	case Paths:
		pl.lambda = budget(eps / 20)
		m := pol.StreamLen
		if m == 0 {
			m = n
		}
		pl.lnInvDelta = core.PathsLnInvDelta(m, pl.lambda, eps, prob.MaxValue(n, maxCount), math.Log(1/delta))
	}
	return pl, nil
}

// Wrap composes the policy with the problem: it returns an estimator that
// is (1±eps)-correct (additively for problems whose Publish changes the
// scale) with probability 1−delta on any adaptively chosen insertion-only
// stream over [n] — by the static guarantee alone for None, and by the
// corresponding robustness theorem otherwise. The result implements
// sketch.RobustnessReporter for every kind except None, where at most the
// problem's adapter does, reporting the zero Robustness.
func (pol Policy) Wrap(eps, delta float64, n uint64, seed int64, prob Problem) (sketch.Estimator, error) {
	pl, err := pol.plan(eps, delta, n, prob)
	if err != nil {
		return nil, err
	}
	inner := func(s int64) sketch.Estimator { return prob.Inner(pl.eps0, pl.lnInvDelta, n, pol.KCap, s) }
	switch {
	case pol.Kind == None:
		return pol.publish(prob, inner(seed)), nil
	case pol.Kind == Paths:
		return pol.publish(prob, core.NewPaths(pl.eps, pl.lambda, inner(seed))), nil
	case pol.Kind == Ring && prob.NewRing != nil:
		return prob.NewRing(pl.eps, delta, n, seed), nil
	}
	return pol.publish(prob, core.NewSwitcher(pl.eps, pl.copies, pol.Kind == Ring, seed, inner)), nil
}

// StateBytes projects the resident bytes of what Wrap would build from the
// sizing arithmetic alone: nothing is allocated and the product is taken in
// float64. Where Wrap would fail, or the problem cannot price its
// instances, the projection is 0.
func (pol Policy) StateBytes(eps, delta float64, n uint64, prob Problem) float64 {
	pl, err := pol.plan(eps, delta, n, prob)
	switch {
	case err != nil || prob.InnerBytes == nil:
		return 0
	case pol.Kind == Ring && prob.NewRing != nil:
		return prob.RingBytes(pl.eps, delta, n)
	case pol.Kind == Switching || pol.Kind == Ring:
		return prob.InnerBytes(pl.eps0, pl.lnInvDelta, n, pol.KCap, pl.copies) + lagBytes
	}
	return prob.InnerBytes(pl.eps0, pl.lnInvDelta, n, pol.KCap, pl.copies)
}

// lagBytes is a full core.Lagged beside its instances (a Switcher's
// trailing copies, the Theorem 6.5 ring): core.PendingCap slots at 16
// bytes, the coalesced one at 16, and the coalescer's index of
// 2 × core.PendingCap slots at 16 (Lagged.SpaceBytes).
const lagBytes = 64 * core.PendingCap

// publish applies the problem's output transform.
func (pol Policy) publish(prob Problem, est sketch.Estimator) sketch.Estimator {
	if prob.Publish == nil {
		return est
	}
	return mapAdapter{inner: est, f: prob.Publish}
}

// mapAdapter publishes f(inner.Estimate()) and forwards everything else.
// It is the package's one estimate-mapping adapter, serving both ends of
// a wrapper: below it, it gives an inner sketch the semantics its Problem
// tracks (norm from a moment sketch, moment from a norm sketch, 2^H from
// an entropy sketch); above it, it applies Problem.Publish to the rounded
// output. The optional write-side surfaces — batch ingest, the coalescing
// declaration — and the robustness state forward to inner when it has them
// and degrade to the per-update loop, false, or the zero answer otherwise;
// the in-place restart has nothing to degrade to, so only the adapter built
// over a kernel that has it (resettable) does.
// It forwards no per-coordinate read: a wrapper's guarantee covers its
// rounded output only.
type mapAdapter struct {
	inner sketch.Estimator
	f     func(float64) float64
}

func (a mapAdapter) Update(item uint64, delta int64) { a.inner.Update(item, delta) }
func (a mapAdapter) Estimate() float64               { return a.f(a.inner.Estimate()) }
func (a mapAdapter) SpaceBytes() int                 { return a.inner.SpaceBytes() }

// UpdateBatch implements sketch.BatchUpdater.
func (a mapAdapter) UpdateBatch(batch []sketch.Update) { sketch.ApplyBatch(a.inner, batch) }

// CoalesceInvariant implements sketch.CoalesceInvariant: the adapter only
// maps the estimate, so the property is the inner sketch's.
func (a mapAdapter) CoalesceInvariant() bool {
	c, ok := a.inner.(sketch.CoalesceInvariant)
	return ok && c.CoalesceInvariant()
}

// Robustness implements sketch.RobustnessReporter.
func (a mapAdapter) Robustness() sketch.Robustness {
	if rr, ok := a.inner.(sketch.RobustnessReporter); ok {
		return rr.Robustness()
	}
	return sketch.Robustness{}
}

// resettable is a mapAdapter over a kernel that restarts in place (the F2
// copies of a norm ring). It is a type of its own so that a ring's probe
// for sketch.Resetter is answered for the inner sketch, not for the adapter.
type resettable struct {
	mapAdapter
	kernel sketch.Resetter
}

// Reset implements sketch.Resetter.
func (a resettable) Reset(rng *rand.Rand) { a.kernel.Reset(rng) }

// oddReps shapes a median-repetition count: capped so reps·perRep stays
// within kCap counters (when kCap > 0), floored at 3, and forced odd.
func oddReps(reps, perRep, kCap int) int {
	if kCap > 0 && perRep > 0 && reps > kCap/perRep {
		reps = kCap / perRep
	}
	if reps < 3 {
		reps = 3
	}
	if reps%2 == 0 {
		reps++
	}
	return reps
}

// LpProblem describes the Lp norm ‖f‖_p for p ∈ (0, 2]: bucketed AMS
// inner sketches for p = 2 (fast, O(rows) per update), Indyk p-stable
// sketches otherwise. The norm has norm (not moment) semantics, matching
// Theorem 1.4; KCap caps the AMS row count / Indyk counter count.
func LpProblem(p float64) Problem {
	if p <= 0 || p > 2 {
		panic("robust: LpProblem needs 0 < p <= 2")
	}
	return Problem{
		Name:     fmt.Sprintf("l%g-norm", p),
		Monotone: true,
		Eps0Div:  6,
		Inner: func(eps0, lnInvDelta float64, n uint64, kCap int, seed int64) sketch.Estimator {
			lnInv := trackingLnInv(eps0, lnInvDelta, n)
			if p == 2 {
				k := fp.NewF2(f2Sizing(eps0, lnInv, kCap), dist.Rand(seed))
				return resettable{mapAdapter{k, math.Sqrt}, k}
			}
			boost := 0.3 * lnInv * math.Log2E
			if boost < 1 {
				boost = 1
			}
			k := int(math.Ceil(3 / (eps0 * eps0) * boost))
			if k < 16 {
				k = 16
			}
			if kCap > 0 && k > kCap {
				k = kCap
			}
			return fp.NewIndyk(p, k, dist.Rand(seed))
		},
		InnerBytes: func(eps0, lnInvDelta float64, n uint64, kCap, copies int) float64 {
			if p != 2 {
				return 0 // unpriced: no hosted cell runs Indyk
			}
			return float64(copies) * f2Sizing(eps0, trackingLnInv(eps0, lnInvDelta, n), kCap).Bytes()
		},
		FlipBound: func(eps float64, n uint64, maxCount float64) int {
			return core.FlipBoundLp(p, eps, n, maxCount)
		},
		MaxValue: func(n uint64, maxCount float64) float64 {
			return math.Pow(float64(n)*math.Pow(maxCount, p), 1/p)
		},
	}
}

// trackingLnInv is the milestone union bound for (ε₀, δ)-tracking of a
// monotone norm: correctness at the O(ε₀⁻¹·log T) milestones where it
// grows by (1+ε₀) pins it everywhere (the f0.TrackingSizing argument).
func trackingLnInv(eps0, lnInvDelta float64, n uint64) float64 {
	return lnInvDelta + math.Log(math.Log(float64(n)+4)/math.Log1p(eps0)+2)
}

// f2Sizing is the bucketed AMS sizing with the row count shaped by KCap.
func f2Sizing(eps0, lnInvDelta float64, kCap int) fp.F2Sizing {
	s := fp.SizeF2Ln(eps0, lnInvDelta)
	s.Rows = oddReps(s.Rows, s.Width, kCap)
	return s
}

// F0Problem describes the distinct-elements count ‖f‖₀: median-of-KMV
// strong-tracking inner instances (Theorem 1.1's static side). KCap caps
// the median repetition count.
func F0Problem() Problem {
	return Problem{
		Name:     "f0",
		Monotone: true,
		Eps0Div:  5,
		Inner: func(eps0, lnInvDelta float64, n uint64, kCap int, seed int64) sketch.Estimator {
			tp := f0.TrackingSizingLn(eps0, lnInvDelta, n)
			reps := oddReps(tp.Reps, tp.K, kCap)
			return f0.NewMedian(reps, seed, func(s int64) sketch.Estimator {
				return f0.NewKMV(tp.K, dist.Rand(s))
			})
		},
		InnerBytes: func(eps0, lnInvDelta float64, n uint64, kCap, copies int) float64 {
			tp := f0.TrackingSizingLn(eps0, lnInvDelta, n)
			return float64(copies) * float64(oddReps(tp.Reps, tp.K, kCap)) * float64(tp.K) * 8 // KMV.SpaceBytes
		},
		FlipBound: func(eps float64, n uint64, maxCount float64) int {
			return core.FlipBoundFp(0, eps, n, maxCount)
		},
		MaxValue: func(n uint64, maxCount float64) float64 { return float64(n) },
	}
}

// EntropyProblem describes g = 2^H (whose flip number Proposition 7.2
// bounds) with Clifford–Cosma inner sketches; the published estimate is
// log₂ of the wrapper's output, and Wrap's eps is the additive error in
// bits — EpsScale = ln 2 converts it to the multiplicative (1 ± ε·ln 2)
// guarantee the rounding machinery provides. Not monotone (entropy falls
// when a heavy item concentrates), so ring mode is rejected; dense
// switching is the paper's own choice (Theorem 1.10) and paths is
// reachable through the same flip bound. KCap caps the CC median group
// count.
func EntropyProblem() Problem {
	return Problem{
		Name:     "entropy",
		Monotone: false,
		EpsScale: math.Ln2,
		Eps0Div:  3,
		Inner: func(eps0, lnInvDelta float64, n uint64, kCap int, seed int64) sketch.Estimator {
			// Prop. 7.2 bounds the flip number of 2^H, not of H: the
			// multiplicative rounding machinery tracks the former.
			return mapAdapter{entropy.NewCC(ccSizing(eps0, lnInvDelta, kCap), dist.Rand(seed)), func(h float64) float64 { return math.Pow(2, h) }}
		},
		InnerBytes: func(eps0, lnInvDelta float64, n uint64, kCap, copies int) float64 {
			return float64(copies) * ccSizing(eps0, lnInvDelta, kCap).Bytes()
		},
		FlipBound: func(eps float64, n uint64, maxCount float64) int {
			return core.FlipBoundEntropyExp(eps, n, maxCount)
		},
		// 2^H is at most the number of distinct items.
		MaxValue: func(n uint64, maxCount float64) float64 { return float64(n) },
		Publish: func(g float64) float64 {
			if g <= 1 {
				return 0
			}
			return math.Log2(g)
		},
	}
}

// ccSizing is the Clifford–Cosma sizing with the group count shaped by
// KCap. eps0 is multiplicative (nats); SizeCC's ε is additive bits, hence
// the /ln2.
func ccSizing(eps0, lnInvDelta float64, kCap int) entropy.CCSizing {
	s := entropy.SizeCCLn(eps0/math.Ln2, lnInvDelta)
	s.Groups = oddReps(s.Groups, s.Per, kCap)
	return s
}

// HHL2Problem describes the L2 norm tracked through CountSketch inner
// instances. Its ring construction is the coupled norm-ring +
// frozen-CountSketch-ring structure of Theorem 6.5 (robust point queries
// included); switching and paths wrap the CountSketch's norm estimate
// generically. KCap caps the CountSketch row count.
func HHL2Problem() Problem {
	return Problem{
		Name:     "hh-l2",
		Monotone: true,
		Eps0Div:  4,
		Inner: func(eps0, lnInvDelta float64, n uint64, kCap int, seed int64) sketch.Estimator {
			return mapAdapter{heavyhitters.NewCountSketch(countSketchSizing(eps0, lnInvDelta, n, kCap), dist.Rand(seed)), math.Sqrt}
		},
		InnerBytes: func(eps0, lnInvDelta float64, n uint64, kCap, copies int) float64 {
			return float64(copies) * countSketchSizing(eps0, lnInvDelta, n, kCap).Bytes()
		},
		FlipBound: func(eps float64, n uint64, maxCount float64) int {
			return core.FlipBoundLp(2, eps, n, maxCount)
		},
		MaxValue: func(n uint64, maxCount float64) float64 {
			return math.Sqrt(float64(n)) * maxCount
		},
		NewRing: func(eps, delta float64, n uint64, seed int64) sketch.Estimator {
			return NewHeavyHitters(eps, delta, n, seed)
		},
		RingBytes: heavyHittersBytes,
	}
}

// countSketchSizing is the tracking CountSketch sizing with the row count
// shaped by KCap.
func countSketchSizing(eps0, lnInvDelta float64, n uint64, kCap int) heavyhitters.Sizing {
	s := heavyhitters.SizeForPointQueryLn(eps0, trackingLnInv(eps0, lnInvDelta, n))
	s.Rows = oddReps(s.Rows, s.Width, kCap)
	return s
}
