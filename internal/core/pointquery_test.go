package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/heavyhitters"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// csFactory builds CountSketch instances sized for ε-accurate point
// queries, the inner type whose policy cells answer point and topk.
func csFactory(eps float64) sketch.Factory {
	sizing := heavyhitters.SizeForPointQuery(eps, 0.01)
	return func(seed int64) sketch.Estimator {
		return heavyhitters.NewCountSketch(sizing, rand.New(rand.NewSource(seed)))
	}
}

// TestSwitcherQueryAnswersFromPublishedCopy: the dense switcher's point
// queries must come from the instance whose estimate produced the current
// rounded output — in particular they must be accurate (every instance
// ingests the full stream), and the answering instance must only change
// when the published output does.
func TestSwitcherQueryAnswersFromPublishedCopy(t *testing.T) {
	const eps = 0.2
	s := NewSwitcher(eps, 16, false, 7, csFactory(0.1))
	truth := stream.NewFreq()
	gen := stream.NewZipf(1<<8, 5000, 1.3, 3)
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		truth.Apply(u)
		s.Update(u.Item, u.Delta)
	}
	if s.published != s.active-1 && !s.exhausted {
		t.Errorf("published copy %d is not the last-spent instance (active %d)", s.published, s.active)
	}
	bound := 0.1 * truth.L2()
	for _, item := range []uint64{0, 1, 2, 77} {
		got := s.Query(item)
		if want := float64(truth.Count(item)); math.Abs(got-want) > bound {
			t.Errorf("Query(%d) = %v, true %v (bound %v)", item, got, want, bound)
		}
	}
	top := s.TopK(3)
	if len(top) != 3 || top[0].Item != 0 {
		t.Errorf("TopK(3) = %v, want item 0 first on a Zipf(1.3) stream", top)
	}
}

// TestPathsQueryForwardsToInner: the computation-paths wrapper forwards
// point and topk queries to its single δ₀-sized inner instance.
func TestPathsQueryForwardsToInner(t *testing.T) {
	inner := csFactory(0.1)(11)
	p := NewPaths(0.2, 64, inner)
	truth := stream.NewFreq()
	gen := stream.NewZipf(1<<8, 5000, 1.3, 9)
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		truth.Apply(u)
		p.Update(u.Item, u.Delta)
	}
	pq := inner.(sketch.PointQuerier)
	for _, item := range []uint64{0, 1, 2, 77} {
		if got, want := p.Query(item), pq.Query(item); got != want {
			t.Errorf("Query(%d) = %v, inner answers %v", item, got, want)
		}
	}
	if got, want := len(p.TopK(4)), 4; got != want {
		t.Errorf("TopK(4) returned %d items", got)
	}
}

// TestRingSwitcherQueryDeclines: in ring mode the published slot is
// restarted with fresh randomness as soon as its value is used, so a
// point query there would answer from a suffix-only sketch; the wrapper
// must decline (0/nil) rather than return near-empty estimates — callers
// wanting robust ring-backed point queries use the frozen construction
// (robust.HeavyHitters).
func TestRingSwitcherQueryDeclines(t *testing.T) {
	s := NewSwitcher(0.2, RingCopies(0.2), true, 7, csFactory(0.1))
	gen := stream.NewZipf(1<<8, 5000, 1.3, 3)
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		s.Update(u.Item, u.Delta)
	}
	if got := s.Query(0); got != 0 {
		t.Errorf("ring Query(0) = %v, want explicit 0", got)
	}
	if got := s.TopK(3); got != nil {
		t.Errorf("ring TopK(3) = %v, want nil", got)
	}
}

// TestQueryOnNonQuerierInner: wrappers over inner types without a
// point-query surface degrade to zero answers instead of panicking; the
// server never routes point queries to such tenants (spec metadata), so
// this is the defensive path only.
func TestQueryOnNonQuerierInner(t *testing.T) {
	s := NewSwitcher(0.2, 4, false, 1, exactF0Factory)
	s.Update(1, 1)
	if got := s.Query(1); got != 0 {
		t.Errorf("Switcher.Query over non-querier inner = %v, want 0", got)
	}
	if got := s.TopK(2); got != nil {
		t.Errorf("Switcher.TopK over non-querier inner = %v, want nil", got)
	}
	p := NewPaths(0.2, 64, exactF0Factory(1))
	p.Update(1, 1)
	if got := p.Query(1); got != 0 {
		t.Errorf("Paths.Query over non-querier inner = %v, want 0", got)
	}
	if got := p.TopK(2); got != nil {
		t.Errorf("Paths.TopK over non-querier inner = %v, want nil", got)
	}
}
