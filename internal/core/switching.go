package core

import (
	"math"

	"repro/internal/dist"
	"repro/internal/sketch"
)

// PendingCap bounds the Switcher's lag buffer: non-active instances may
// fall at most this many updates behind before a drain applies the backlog
// to every live copy in one pass.
const PendingCap = 16384

// Switcher implements sketch switching (Algorithm 1 of the paper): it
// maintains several independent instances of a static strong-tracking
// estimator, publishes an ε/2-rounded output, and — whenever the held
// output stops being a (1 ± ε/2) approximation of the active instance's
// estimate — re-rounds and deactivates the instance. Because each
// instance's randomness influences at most one published value change, the
// adversary's adaptivity collapses to a fixed stream per instance
// (Lemma 3.6), making the wrapper adversarially robust.
//
// Two modes:
//
//   - dense (ring = false): copies must be ≥ the flip number
//     λ_{Θ(ε),m}(g); instance ρ is abandoned after its value is used.
//     This is Algorithm 1 verbatim.
//   - ring (ring = true): copies = Θ(ε⁻¹·log ε⁻¹) instances recycled
//     modularly, each restarted on the stream suffix after use. By the
//     Theorem 4.1 argument the discarded prefix holds ≤ an ε/100 fraction
//     of a monotone statistic's mass by the time the instance is reused,
//     so the suffix estimate still (1±ε)-tracks. Use only for monotone
//     statistics (all Fp on insertion-only streams, 2^H, …).
//
// Only the active instance is updated synchronously (its estimate feeds
// the per-update drift check, so it must be exact); the others trail
// behind a bounded lag buffer (Lagged) and catch up in batch, or lazily
// when read, so published outputs, switch counts and flip budgets are
// update-for-update identical to the synchronous formulation. In dense
// mode an instance whose value has been published can never influence an
// output again — it is dropped at switch time, so a dense Switcher's
// footprint shrinks as its flip budget is consumed.
type Switcher struct {
	r         rounding // the published output; a flip spends the active instance
	factory   sketch.Factory
	lag       Lagged // the instances; dense mode drops the slots below active
	active    int
	ring      bool
	exhausted bool
	nextSeed  int64
}

// RingCopies returns the instance count Θ(ε⁻¹·log ε⁻¹) sufficient for ring
// mode: an instance is reused only after the output has climbed through
// all copies' rounded values, i.e. the statistic has grown by
// (1+ε/2)^copies ≥ 100/ε, so the prefix it missed is ≤ ε/100 of the mass.
func RingCopies(eps float64) int {
	if eps <= 0 || eps >= 1 {
		panic("core: RingCopies needs 0 < eps < 1")
	}
	return int(math.Ceil(math.Log(100/eps)/math.Log1p(eps/2))) + 1
}

// NewSwitcher returns a sketch-switching wrapper publishing (1±ε)-accurate
// estimates. copies is the number of instances (the flip number in dense
// mode, RingCopies(eps) in ring mode); factory must build independent
// (Θ(ε), δ/copies)-strong-tracking instances.
func NewSwitcher(eps float64, copies int, ring bool, seed int64, factory sketch.Factory) *Switcher {
	if copies < 1 {
		panic("core: NewSwitcher needs copies >= 1")
	}
	s := &Switcher{r: rounding{eps: eps / 2}, factory: factory, ring: ring, nextSeed: seed}
	instances := make([]sketch.Estimator, copies)
	for i := range instances {
		instances[i] = factory(s.nextSeed)
		s.nextSeed += 7919
	}
	s.lag = NewLagged(instances, PendingCap)
	return s
}

// Update implements sketch.Estimator: the update is buffered for the
// trailing instances, applied to the active instance immediately, and the
// published output is refreshed from the active instance if it drifted.
func (s *Switcher) Update(item uint64, delta int64) {
	if s.r.step(s.lag.Step(s.active, item, delta).Estimate(), RoundEps) {
		s.advance()
	}
	if s.lag.Full() {
		s.lag.Drain()
	}
}

func (s *Switcher) advance() {
	if s.ring {
		// Restart the just-used instance with fresh randomness; it will
		// track the suffix of the stream until its turn comes again. One
		// that can re-draw itself in place does; the factory builds a
		// replacement for one that cannot.
		inst := s.lag.Current(s.active)
		if r, ok := inst.(sketch.Resetter); ok {
			r.Reset(dist.Rand(s.nextSeed))
		} else {
			inst = s.factory(s.nextSeed)
		}
		s.lag.Replace(s.active, inst)
		s.nextSeed += 7919
		s.active = (s.active + 1) % s.lag.Len()
		s.lag.Current(s.active)
		return
	}
	if s.active+1 == s.lag.Len() {
		// Flip budget exceeded: the λ sizing was too small for this stream.
		// Keep answering from the last instance (correctness is no longer
		// guaranteed) and surface the condition via Exhausted.
		s.exhausted = true
		return
	}
	// Dense mode: the instance just published is spent — drop it, so the
	// wrapper's footprint tracks the remaining flip budget.
	s.lag.Drop(s.active)
	s.active++
	s.lag.Current(s.active)
}

// Estimate returns the current published (rounded) output.
func (s *Switcher) Estimate() float64 { return s.r.out }

// Switches returns how many times the published output changed.
func (s *Switcher) Switches() int { return s.r.flips }

// Exhausted reports whether a dense-mode Switcher ran out of instances
// (never true in ring mode).
func (s *Switcher) Exhausted() bool { return s.exhausted }

// Copies returns the number of live instances: every slot in ring mode,
// the active one and those above it in dense mode.
func (s *Switcher) Copies() int {
	if s.ring {
		return s.lag.Len()
	}
	return s.lag.Len() - s.active
}

// Robustness implements sketch.RobustnessReporter: ring mode reports an
// unbounded budget (instances are recycled), dense mode reports the copy
// count it was sized for as the flip budget, with Copies tracking the
// instances not yet spent.
func (s *Switcher) Robustness() sketch.Robustness {
	r := sketch.Robustness{
		Copies:    s.Copies(),
		Switches:  s.r.flips,
		Budget:    s.lag.Len(),
		Exhausted: s.exhausted,
	}
	if s.ring {
		r.Budget = -1
	}
	return r
}

// SpaceBytes charges the published output plus the live instances, the lag
// buffer and the drain's coalescing scratch.
func (s *Switcher) SpaceBytes() int { return 16 + s.lag.SpaceBytes() }
