// Package f0 implements distinct-elements (F0) estimators: an exact
// baseline, the KMV (k-minimum-values) sketch with strong tracking, and the
// paper's own fast small-δ estimator (Algorithm 2 / Lemma 5.2). These are
// the static algorithms that the robustification framework of
// internal/core turns into adversarially robust ones (Theorems 1.1–1.3).
//
// A switching ensemble holds thousands of KMVs, nearly all in trailing
// copies fed by the batch and never read, so a KMV is its minima in one
// sorted run and nothing beside it.
package f0

// Exact counts distinct elements exactly in Θ(F0) space. It is the
// deterministic baseline of Table 1 (the Ω(n) row): correct on every
// stream, insensitive to adversaries, and linear in space.
type Exact struct {
	seen map[uint64]struct{}
}

// NewExact returns an exact distinct-elements counter.
func NewExact() *Exact { return &Exact{seen: make(map[uint64]struct{})} }

// Update implements sketch.Estimator. Deltas are ignored except for their
// presence: F0 of an insertion-only stream counts every touched item.
func (e *Exact) Update(item uint64, delta int64) {
	e.seen[item] = struct{}{}
}

// Estimate returns the exact distinct count.
func (e *Exact) Estimate() float64 { return float64(len(e.seen)) }

// SpaceBytes charges the identity set at what the runtime keeps for it.
func (e *Exact) SpaceBytes() int { return setBytes(len(e.seen)) }

// DuplicateInsensitive reports that re-inserting a seen item is a no-op.
func (e *Exact) DuplicateInsensitive() bool { return true }
