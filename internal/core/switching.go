package core

import (
	"math"

	"repro/internal/dist"
	"repro/internal/sketch"
)

// PendingCap bounds every Lagged's buffer, the Switcher's and the Theorem
// 6.5 ring's: an instance not read since may fall at most this many updates
// behind before a drain applies the backlog to every live copy in one pass.
// A dense ensemble over coalesce-invariant copies keeps its buffer folded,
// one entry per distinct item, so there the bound is this many distinct
// items since the last drain, and a skewed stream drains less often.
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
// footprint shrinks as its flip budget is consumed. Nor is a dense copy
// built before it is needed: one that has seen nothing is its seed, and
// until the first drain the lag buffer holds the whole stream, so slot i
// is built when it becomes active or at the first drain, whichever comes
// first, and fed the buffer from its start. A dense footprint is the
// copies still owed; before the first drain, only the active one is
// resident, and each flip restarts the spent copy in place as the next.
type Switcher struct {
	r         rounding // the published output; a flip spends the active instance
	factory   sketch.Factory
	lag       Lagged // the instances; dense mode builds slots as they are needed and drops the slots below active
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
// (Θ(ε), δ/copies)-strong-tracking instances. Instance i is seeded
// seed + 7919·i; a ring builds them all here, since the first drain needs
// every one, a dense ensemble only the first.
func NewSwitcher(eps float64, copies int, ring bool, seed int64, factory sketch.Factory) *Switcher {
	if copies < 1 {
		panic("core: NewSwitcher needs copies >= 1")
	}
	s := &Switcher{r: rounding{eps: eps / 2}, factory: factory, ring: ring, nextSeed: seed + 7919*int64(copies)}
	build := func(i int, spent sketch.Estimator) sketch.Estimator { return s.fresh(spent, seed+7919*int64(i)) }
	instances, now := make([]sketch.Estimator, copies), 1
	if ring {
		now = copies // the first drain feeds every ring slot
	}
	for i := range now {
		instances[i] = build(i, nil)
	}
	s.lag = NewLagged(instances, PendingCap)
	s.lag.Owe(build)
	return s
}

// fresh is the one place a copy is made: the spent one (nil if there is
// none) restarted in place from seed when it can re-draw itself, a new one
// from the factory otherwise. Either way the copy is what factory(seed)
// builds, which is what sketch.Resetter asks of the factory.
func (s *Switcher) fresh(spent sketch.Estimator, seed int64) sketch.Estimator {
	if r, ok := spent.(sketch.Resetter); ok {
		r.Reset(dist.Rand(seed))
		return spent
	}
	return s.factory(seed)
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
		// track the suffix of the stream until its turn comes again.
		s.lag.Replace(s.active, s.fresh(s.lag.Current(s.active), s.nextSeed))
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
	// wrapper's footprint tracks the remaining flip budget. If the next
	// slot is still owed, reading it builds it in the spent copy's memory.
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
// the active one and those above it in dense mode, built or still owed.
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

// SpaceBytes charges the published output plus the instances built and not
// dropped, the lag buffer and its coalescing index and scratch.
func (s *Switcher) SpaceBytes() int { return 16 + s.lag.SpaceBytes() }
