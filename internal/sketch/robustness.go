package sketch

// Robustness is the introspectable state of an adversarially robust
// wrapper: how much of its robustness budget has been consumed. Which
// transformation protects the estimator is its declaration's, not state it
// reports. The sketchd /v1/stats endpoint aggregates it across engine
// shards so operators can see a tenant approaching flip-budget exhaustion
// before estimates degrade.
type Robustness struct {
	// Copies is the number of maintained static instances (1 for paths).
	Copies int

	// Switches is the number of published-output changes so far — the
	// quantity the flip budget bounds.
	Switches int

	// Budget is the total flip budget: the dense copy count for
	// switching, the union-bound λ for paths, and -1 for ring mode, which
	// recycles instances and never exhausts.
	Budget int

	// Exhausted reports that Switches overran Budget: the stream's flip
	// number exceeded the λ the wrapper was sized for, so the robustness
	// guarantee no longer covers it.
	Exhausted bool
}

// Remaining returns the unconsumed flip budget, or -1 when the budget is
// unbounded (ring mode). An exhausted budget has none left, even where a
// sum over shards whose own budgets differ in use would show headroom.
func (r Robustness) Remaining() int {
	if r.Budget < 0 {
		return -1
	}
	if r.Exhausted || r.Switches >= r.Budget {
		return 0
	}
	return r.Budget - r.Switches
}

// RobustnessReporter is implemented by the robust wrappers (core.Switcher,
// core.Paths, and the adapters in internal/robust that forward to them).
// Static estimators do not implement it, which is how callers distinguish
// the two.
type RobustnessReporter interface {
	Robustness() Robustness
}
