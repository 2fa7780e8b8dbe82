package core

import "repro/internal/sketch"

// Reference is the synchronous Algorithm 1 (referenceSwitcher), every copy
// built up front, for the package's external tests: they may import the
// robust registry, which imports this package.
type Reference = referenceSwitcher

// NewReference builds a dense Reference.
func NewReference(eps float64, copies int, seed int64, factory sketch.Factory) *Reference {
	return newReferenceSwitcher(eps, copies, false, seed, factory)
}

// State is what the reference publishes: its estimate, switches and
// exhaustion.
func (r *referenceSwitcher) State() (float64, int, bool) { return r.out, r.switches, r.exhausted }

// BuiltSlots is how many of the Switcher's slots have been built.
func (s *Switcher) BuiltSlots() int { return s.lag.built }

// DrainsAt lists the updates after which a Switcher's buffer drains: see
// drainsAt.
func DrainsAt(ups []sketch.Update, folded bool) []int { return drainsAt(ups, folded) }
