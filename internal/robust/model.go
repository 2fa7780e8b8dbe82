package robust

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fp"
	"repro/internal/sketch"
)

// ModelKind names the stream class a robust estimator is sound for. The
// paper's framework is parameterized by the stream class as much as by the
// statistic: the same policy machinery hosts insertion-only streams
// (Theorems 1.1/1.4), λ-flip turnstile streams (Theorem 1.6), and
// α-bounded-deletion streams (Theorem 1.11 via Lemma 8.2) — only the flip
// bound and the value semantics change. The zero value is insertion-only,
// so every pre-model Problem keeps its meaning unchanged.
type ModelKind uint8

const (
	// ModelInsertion is the insertion-only class: deltas are never
	// negative and every statistic the registry tracks is monotone, so
	// the Corollary 3.5 flip bounds apply.
	ModelInsertion ModelKind = iota

	// ModelTurnstile is the class S_λ of Theorem 1.6: arbitrary-sign
	// streams whose Fp flip number is promised (by the caller) to be at
	// most λ. The guarantee is conditional on the promise — the class is
	// defined by its declared flip bound.
	ModelTurnstile

	// ModelBoundedDeletion is the Fp α-bounded-deletion class of
	// Definition 8.1: at every prefix ‖f‖_p^p ≥ (1/α)·‖h‖_p^p, where h is
	// the absolute-value stream. Lemma 8.2 turns α into a worst-case flip
	// bound, so no per-stream promise is needed.
	ModelBoundedDeletion
)

var modelNames = map[ModelKind]string{
	ModelInsertion:       "insertion",
	ModelTurnstile:       "turnstile",
	ModelBoundedDeletion: "bounded_deletion",
}

// String returns the kind's registry name (insertion, turnstile,
// bounded_deletion).
func (k ModelKind) String() string {
	if s, ok := modelNames[k]; ok {
		return s
	}
	return fmt.Sprintf("model(%d)", uint8(k))
}

// ModelKinds lists every stream model name, sorted for error messages.
func ModelKinds() []string {
	out := make([]string, 0, len(modelNames))
	for _, s := range modelNames {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Model is a parameterized stream class: the kind plus the parameter that
// defines the class (λ for turnstile, α for bounded deletion). The zero
// value is the insertion-only model.
type Model struct {
	// Kind selects the stream class.
	Kind ModelKind

	// Lambda is the declared Fp flip bound λ of the turnstile class S_λ
	// (Theorem 1.6). Required ≥ 1 when Kind is ModelTurnstile; must be
	// zero otherwise.
	Lambda int

	// Alpha is the bounded-deletion parameter α ≥ 1 of Definition 8.1.
	// Required when Kind is ModelBoundedDeletion; must be zero otherwise.
	Alpha float64
}

// InsertionModel returns the insertion-only stream model (the zero value).
func InsertionModel() Model { return Model{} }

// TurnstileModel returns the turnstile class S_λ with declared flip
// bound lambda.
func TurnstileModel(lambda int) Model {
	return Model{Kind: ModelTurnstile, Lambda: lambda}
}

// BoundedDeletionModel returns the Fp α-bounded-deletion class.
func BoundedDeletionModel(alpha float64) Model {
	return Model{Kind: ModelBoundedDeletion, Alpha: alpha}
}

// String returns the model's name with its class parameter, for errors
// and display.
func (m Model) String() string {
	switch m.Kind {
	case ModelTurnstile:
		return fmt.Sprintf("turnstile(λ=%d)", m.Lambda)
	case ModelBoundedDeletion:
		return fmt.Sprintf("bounded_deletion(α=%g)", m.Alpha)
	}
	return m.Kind.String()
}

// Validate checks the model's class parameter: λ ≥ 1 for turnstile, a
// finite α ≥ 1 for bounded deletion, and no stray parameters on models
// that do not take them.
func (m Model) Validate() error {
	switch m.Kind {
	case ModelInsertion:
		if m.Lambda != 0 {
			return fmt.Errorf("robust: model insertion takes no lambda (got %d)", m.Lambda)
		}
		if m.Alpha != 0 {
			return fmt.Errorf("robust: model insertion takes no alpha (got %g)", m.Alpha)
		}
		return nil
	case ModelTurnstile:
		if m.Lambda < 1 {
			return fmt.Errorf("robust: model turnstile needs a declared flip bound lambda >= 1, got %d", m.Lambda)
		}
		if m.Alpha != 0 {
			return fmt.Errorf("robust: model turnstile takes no alpha (got %g)", m.Alpha)
		}
		return nil
	case ModelBoundedDeletion:
		if m.Lambda != 0 {
			return fmt.Errorf("robust: model bounded_deletion takes no lambda (got %d)", m.Lambda)
		}
		if math.IsNaN(m.Alpha) || math.IsInf(m.Alpha, 0) || m.Alpha < 1 {
			return fmt.Errorf("robust: model bounded_deletion needs a finite alpha >= 1, got %g", m.Alpha)
		}
		return nil
	}
	return fmt.Errorf("robust: unknown stream model %d", uint8(m.Kind))
}

// LpProblemFor returns the Fp problem for stream model m: the norm
// problem LpProblem(p) on insertion-only streams, and the moment problem
// of Theorems 4.3 / 8.3 (published value ‖f‖_p^p, non-monotone, Indyk
// p-stable inner sketches) with the model's flip bound otherwise —
// the declared λ of S_λ for turnstile, Lemma 8.2's bound for bounded
// deletion. It is the single model-dispatch point the registry, the
// thin constructors, and the experiment harness all share.
func LpProblemFor(p float64, m Model) (Problem, error) {
	if err := m.Validate(); err != nil {
		return Problem{}, err
	}
	switch m.Kind {
	case ModelInsertion:
		return LpProblem(p), nil
	case ModelTurnstile:
		if p <= 0 || p > 2 {
			return Problem{}, fmt.Errorf("robust: turnstile Fp needs 0 < p <= 2 (Theorem 1.6), got %g", p)
		}
		lambda := m.Lambda
		return fpMomentProblem(p, m, func(eps float64, n uint64, maxCount float64) int {
			return core.FlipBoundTurnstile(lambda)
		}), nil
	case ModelBoundedDeletion:
		if p < 1 || p > 2 {
			return Problem{}, fmt.Errorf("robust: bounded-deletion Fp needs 1 <= p <= 2 (Theorem 8.3), got %g", p)
		}
		alpha := m.Alpha
		return fpMomentProblem(p, m, func(eps float64, n uint64, maxCount float64) int {
			return core.FlipBoundBoundedDeletion(p, alpha, eps, n, maxCount)
		}), nil
	}
	return Problem{}, fmt.Errorf("robust: unknown stream model %d", uint8(m.Kind))
}

// fpMomentProblem is the shared non-insertion Fp problem: moment
// semantics (‖f‖_p^p as in Theorem 4.3), linear inner sketches (so
// deletions are handled natively), and the model-specific flip bound.
// p = 2 uses the bucketed AMS sketch — its Estimate is the F2 moment
// directly, its per-update cost is O(rows) hash evaluations, and its row
// aggregates make the wrappers' per-update drift checks O(rows) too;
// every other p uses Indyk p-stable sketches, whose per-update cost is
// Θ(k) variate derivations. Not monotone — deletions shrink the moment —
// so ring mode is structurally rejected; Check additionally gates ring on
// the model itself.
func fpMomentProblem(p float64, m Model, flip func(eps float64, n uint64, maxCount float64) int) Problem {
	return Problem{
		Name:     fmt.Sprintf("f%g-moment", p),
		Monotone: false,
		Model:    m,
		Eps0Div:  6,
		Inner: func(eps0, lnInvDelta float64, n uint64, kCap int, seed int64) sketch.Estimator {
			if p == 2 {
				return fp.NewF2(f2Sizing(eps0, lnInvDelta, kCap), dist.Rand(seed))
			}
			k := int(math.Ceil(3 / (eps0 * eps0) * 0.3 * lnInvDelta * math.Log2E))
			if k < 16 {
				k = 16
			}
			if kCap > 0 && k > kCap {
				k = kCap
			}
			return mapAdapter{fp.NewIndyk(p, k, dist.Rand(seed)), func(norm float64) float64 { return math.Pow(norm, p) }}
		},
		InnerBytes: func(eps0, lnInvDelta float64, n uint64, kCap, copies int) float64 {
			if p != 2 {
				return 0 // unpriced: no hosted cell runs Indyk
			}
			return float64(copies) * f2Sizing(eps0, lnInvDelta, kCap).Bytes()
		},
		FlipBound: flip,
		MaxValue: func(n uint64, maxCount float64) float64 {
			return float64(n) * math.Pow(maxCount, p)
		},
	}
}
