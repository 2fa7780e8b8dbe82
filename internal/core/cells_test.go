package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/sketch"
)

// TestDenseCellsMatchEagerReference: every dense registry cell — f2, kmv
// and cc under switching — builds a copy when it first becomes active or at
// the first drain, restarting the spent copy in place when its kernel can
// (f2's) and asking the factory otherwise (kmv's, cc's). Over the cell's own
// inner sketches and a stream past three drains, each publishes update for
// update what the synchronous reference publishes, whose copies are all
// built up front and all fed every update; before the first drain it has
// built the flips spent plus one slots, and from the first drain on every
// slot. f2's and kmv's buffers are folded, so their drains wait for
// distinct items; cc's stays raw.
func TestDenseCellsMatchEagerReference(t *testing.T) {
	const seed = 42
	rng := rand.New(rand.NewSource(5))
	// Uniform over a universe that doubles at every raw drain, so each
	// statistic keeps climbing: flips are spent before the first drain and
	// after it, and coarse sketches settle between climbs.
	doubling := make([]sketch.Update, 3*core.PendingCap+777)
	for i := range doubling {
		doubling[i] = sketch.Update{Item: uint64(rng.Intn(16 << (i / core.PendingCap))), Delta: 1 + rng.Int63n(3)}
	}
	// Uniform over 2²⁰, so nearly every update is a distinct item and a
	// folded buffer drains about every PendingCap updates.
	wide := make([]sketch.Update, 3*core.PendingCap+4096)
	for i := range wide {
		wide[i] = sketch.Update{Item: uint64(rng.Intn(1 << 20)), Delta: 1 + rng.Int63n(3)}
	}
	for _, c := range []struct {
		name      string
		prob      robust.Problem
		eps, eps0 float64
		copies    int
		ups       []sketch.Update
		folded    bool
	}{
		{"f2", robust.LpProblem(2), 0.3, 0.1, 64, wide, true},
		{"kmv", robust.F0Problem(), 0.3, 0.1, 128, wide, true},
		{"cc", robust.EntropyProblem(), 0.8, 0.9, 16, doubling, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Inner sketches at the fewest repetitions, and coarse CC ones
			// (each of a CC's counters costs a stable variate an update):
			// equality with the reference does not depend on their accuracy.
			eps, copies := c.eps, c.copies
			inner := func(s int64) sketch.Estimator {
				return c.prob.Inner(c.eps0, math.Log(float64(copies)/0.05), 1<<16, 1, s)
			}
			sw := core.NewSwitcher(eps, copies, false, seed, inner)
			ref := core.NewReference(eps, copies, seed, inner)
			drains := core.DrainsAt(c.ups, c.folded)
			if len(drains) < 3 {
				t.Fatalf("drains after updates %v: want three", drains)
			}
			flipsBeforeDrain := 0
			for i, u := range c.ups {
				sw.Update(u.Item, u.Delta)
				ref.Update(u.Item, u.Delta)
				est, switches, exhausted := ref.State()
				if sw.Estimate() != est || sw.Switches() != switches || sw.Exhausted() != exhausted {
					t.Fatalf("update %d: (estimate, switches, exhausted) = (%v, %d, %v), reference (%v, %d, %v)",
						i, sw.Estimate(), sw.Switches(), sw.Exhausted(), est, switches, exhausted)
				}
				built := copies
				if i < drains[0] {
					built, flipsBeforeDrain = min(switches+1, copies), switches
				}
				if sw.BuiltSlots() != built {
					t.Fatalf("update %d: %d slots built after %d switches, want %d", i, sw.BuiltSlots(), switches, built)
				}
			}
			_, switches, exhausted := ref.State()
			t.Logf("%d switches before the first drain, %d in all", flipsBeforeDrain, switches)
			if flipsBeforeDrain < 4 || switches == flipsBeforeDrain || exhausted {
				t.Fatalf("%d switches before the first drain, %d in all, exhausted %v: want copies spent both before and after it, and some left", flipsBeforeDrain, switches, exhausted)
			}
		})
	}
}
