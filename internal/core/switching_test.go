package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/f0"
	"repro/internal/fp"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// exactF0Factory builds deterministic exact-F0 instances; with an exact
// inner algorithm the switching wrapper's own logic can be tested without
// statistical noise.
func exactF0Factory(seed int64) sketch.Estimator { return f0.NewExact() }

func TestSwitcherTracksWithExactInner(t *testing.T) {
	const eps = 0.3
	const m = 5000
	sw := NewSwitcher(eps, FlipBoundFp(0, eps/20, m, 1), false, 1, exactF0Factory)
	f := stream.NewFreq()
	g := stream.NewUniform(2048, m, 5)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		sw.Update(u.Item, u.Delta)
		f.Apply(u)
		truth := f.F0()
		if est := sw.Estimate(); math.Abs(est-truth) > eps*truth {
			t.Fatalf("switcher output %v not within (1±%v) of %v at m=%d", est, eps, truth, f.Updates())
		}
	}
	if sw.Exhausted() {
		t.Error("switcher exhausted its instances despite flip-bound sizing")
	}
}

func TestSwitcherSwitchCountWithinFlipBudget(t *testing.T) {
	const eps = 0.4
	const m = 10000
	lambda := FlipBoundFp(0, eps/20, m, 1)
	sw := NewSwitcher(eps, lambda, false, 1, exactF0Factory)
	g := stream.NewDistinct(m) // steepest possible F0 growth
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		sw.Update(u.Item, u.Delta)
	}
	if sw.Switches() > lambda {
		t.Errorf("switches %d exceeded flip budget %d", sw.Switches(), lambda)
	}
	if sw.Exhausted() {
		t.Error("exhausted on a stream the budget must cover")
	}
}

func TestSwitcherExhaustionSurfaced(t *testing.T) {
	sw := NewSwitcher(0.1, 2, false, 1, exactF0Factory)
	g := stream.NewDistinct(1000)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		sw.Update(u.Item, u.Delta)
	}
	if !sw.Exhausted() {
		t.Error("2-copy switcher should exhaust on 1000 distinct items")
	}
}

func TestSwitcherRingNeverExhausts(t *testing.T) {
	const eps = 0.3
	sw := NewSwitcher(eps, RingCopies(eps), true, 1, exactF0Factory)
	f := stream.NewFreq()
	g := stream.NewDistinct(30000)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		sw.Update(u.Item, u.Delta)
		f.Apply(u)
	}
	if sw.Exhausted() {
		t.Error("ring switcher reported exhaustion")
	}
	// On the all-distinct stream the suffix F0 equals the full-stream F0
	// between restarts only approximately; final output must still track.
	truth := f.F0()
	if est := sw.Estimate(); math.Abs(est-truth) > 2*eps*truth {
		t.Errorf("ring switcher output %v vs truth %v", est, truth)
	}
}

func TestSwitcherRingWithKMVTracksLongStream(t *testing.T) {
	// End-to-end: randomized strong-tracking inner sketches, ring
	// recycling, duplicates in the stream (so suffixes genuinely differ
	// from the full stream), and a (2ε) tracking check.
	// Inner accuracy ε/8 (the paper's proof uses ε/20; any ε₀ ≤ ε/10-ish
	// satisfies Lemma 3.3 up to constants, and the coarser setting keeps
	// the test's memory footprint sane).
	const eps = 0.35
	copies := RingCopies(eps)
	factory := func(seed int64) sketch.Estimator {
		return f0.NewTracking(eps/8, 0.01/float64(copies), 1<<20, seed)
	}
	sw := NewSwitcher(eps, copies, true, 99, factory)
	f := stream.NewFreq()
	g := stream.NewUniform(1<<14, 15000, 17)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		sw.Update(u.Item, u.Delta)
		f.Apply(u)
		truth := f.F0()
		if truth < 50 {
			continue // rounding granularity dominates tiny counts
		}
		if est := sw.Estimate(); math.Abs(est-truth) > 2*eps*truth {
			t.Fatalf("ring+KMV output %v not within 2ε of %v at m=%d", est, truth, f.Updates())
		}
	}
}

func TestRingCopiesScaling(t *testing.T) {
	if RingCopies(0.1) <= RingCopies(0.5) {
		t.Error("smaller eps must need more ring copies")
	}
}

func TestSwitcherSpaceScalesWithCopies(t *testing.T) {
	// Fresh switchers: retirement shrinks a dense switcher once updates
	// consume flip budget (see TestSwitcherRetirementShrinksSpace), so the
	// copy-count scaling is a property of the initial footprint.
	small := NewSwitcher(0.3, 2, false, 1, func(seed int64) sketch.Estimator {
		return f0.NewKMV(16, rand.New(rand.NewSource(seed)))
	})
	big := NewSwitcher(0.3, 8, false, 1, func(seed int64) sketch.Estimator {
		return f0.NewKMV(16, rand.New(rand.NewSource(seed)))
	})
	if big.SpaceBytes() < 3*small.SpaceBytes() {
		t.Errorf("8-copy space %d not ≈ 4x the 2-copy space %d", big.SpaceBytes(), small.SpaceBytes())
	}

	// The first drain allocates the coalescing scratch — the net-delta
	// buffer and its item index — and from then on it is charged, like the
	// lag buffer it shadows: the index as allocated, 2 × PendingCap slots
	// however few items the buffer held. Four items keep the switch count
	// under the copy count, so trailing copies exist for the drain to feed.
	for i := 0; i < PendingCap; i++ {
		big.Update(uint64(i%4), 1)
	}
	if len(big.lag.pending) != 0 || len(big.lag.net) != 4 {
		t.Fatalf("after %d updates: %d pending, %d coalesced entries; want a drain that coalesced to 4", PendingCap, len(big.lag.pending), len(big.lag.net))
	}
	if got, want := big.SpaceBytes()-liveBytes(big), 16+16*cap(big.lag.pending)+16*cap(big.lag.net)+16*2*PendingCap; got != want {
		t.Errorf("wrapper overhead %d bytes, want %d (output + lag buffer + coalesced buffer and its index)", got, want)
	}
}

func TestSwitcherRetirementShrinksSpace(t *testing.T) {
	// Dense mode: an instance whose value was published can never influence
	// an output again, so switching must release its space and report
	// fewer live copies. The inner sketch allocates its full footprint at
	// construction (unlike KMV, which grows as it fills), so retirement
	// shows up as an absolute drop.
	sw := NewSwitcher(0.1, 8, false, 1, func(seed int64) sketch.Estimator {
		return fp.NewF2(fp.F2Sizing{Rows: 5, Width: 4096}, rand.New(rand.NewSource(seed)))
	})
	if got := sw.Robustness().Copies; got != 8 {
		t.Fatalf("fresh switcher reports %d live copies, want 8", got)
	}
	g := stream.NewDistinct(5000)
	peak := 0
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		sw.Update(u.Item, u.Delta)
		if sp := sw.SpaceBytes(); sp > peak {
			peak = sp
		}
	}
	if sw.Switches() < 4 {
		t.Fatalf("stream produced only %d switches; test needs retirements", sw.Switches())
	}
	if got := sw.SpaceBytes(); got >= peak {
		t.Errorf("space %d did not drop below mid-stream peak %d after %d switches", got, peak, sw.Switches())
	}
	r := sw.Robustness()
	if r.Copies >= 8 {
		t.Errorf("live copies %d did not drop below 8", r.Copies)
	}
	if r.Budget != 8 {
		t.Errorf("flip budget %d changed; retirement must not alter it", r.Budget)
	}
}

// referenceSwitcher is Algorithm 1 in its textbook synchronous form —
// every instance ingests every update immediately, nothing is retired.
// The production Switcher's lag buffer, batch path and retirement are
// pure performance machinery, so the two must agree update-for-update.
type referenceSwitcher struct {
	eps       float64
	factory   sketch.Factory
	instances []sketch.Estimator
	active    int
	out       float64
	ring      bool
	switches  int
	exhausted bool
	nextSeed  int64
}

func newReferenceSwitcher(eps float64, copies int, ring bool, seed int64, factory sketch.Factory) *referenceSwitcher {
	r := &referenceSwitcher{eps: eps, factory: factory, ring: ring, nextSeed: seed}
	for i := 0; i < copies; i++ {
		r.instances = append(r.instances, factory(r.nextSeed))
		r.nextSeed += 7919
	}
	return r
}

func (r *referenceSwitcher) Update(item uint64, delta int64) {
	for _, inst := range r.instances {
		inst.Update(item, delta)
	}
	y := r.instances[r.active].Estimate()
	if withinRel(r.out, y, r.eps/2) {
		return
	}
	r.out = RoundEps(y, r.eps/2)
	r.switches++
	if r.ring {
		r.instances[r.active] = r.factory(r.nextSeed)
		r.nextSeed += 7919
		r.active = (r.active + 1) % len(r.instances)
		return
	}
	if r.active+1 < len(r.instances) {
		r.active++
		return
	}
	r.exhausted = true
}

func (r *referenceSwitcher) Estimate() float64 { return r.out }

// liveBytes sums the instances the Switcher still holds.
func liveBytes(sw *Switcher) int {
	total := 0
	for _, inst := range sw.lag.instances {
		if inst != nil {
			total += inst.SpaceBytes()
		}
	}
	return total
}

// checkShape is the footprint half of the equivalence: what the production
// Switcher holds is a function of the reference's switch count alone. A
// ring keeps every slot; a dense ensemble of slots instances has spent one
// per switch, until the last one, which stays and keeps answering. With
// fixedFootprint inner sketches (allocated whole at construction) the live
// bytes are that many instances exactly, so SpaceBytes — live bytes plus
// buffers a switch does not touch — never rises across a switch.
func checkShape(t *testing.T, i int, sw *Switcher, ref *referenceSwitcher, fixedFootprint bool) {
	t.Helper()
	slots := len(ref.instances)
	want := slots
	if !ref.ring {
		want = max(slots-ref.switches, 1)
	}
	if got := sw.Copies(); got != want {
		t.Fatalf("update %d: %d live copies after %d switches of %d slots, want %d", i, got, ref.switches, slots, want)
	}
	if per := ref.instances[slots-1].SpaceBytes(); fixedFootprint && liveBytes(sw) != want*per {
		t.Fatalf("update %d: %d live bytes, want %d copies of %d", i, liveBytes(sw), want, per)
	}
}

// streamF2Updates yields a deterministic mixed-sign update sequence with
// enough churn to cross many rounding-grid boundaries.
func streamF2Updates(n int, seed int64) []sketch.Update {
	rng := rand.New(rand.NewSource(seed))
	ups := make([]sketch.Update, 0, n)
	for i := 0; i < n; i++ {
		ups = append(ups, sketch.Update{Item: uint64(rng.Intn(512)), Delta: int64(1 + rng.Intn(3))})
	}
	return ups
}

func TestSwitcherMatchesReferencePerUpdate(t *testing.T) {
	factory := func(seed int64) sketch.Estimator {
		return fp.NewF2(fp.F2Sizing{Rows: 5, Width: 64}, rand.New(rand.NewSource(seed)))
	}
	for _, tc := range []struct {
		name   string
		ring   bool
		copies int
	}{
		{"dense", false, 24},
		{"ring", true, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw := NewSwitcher(0.3, tc.copies, tc.ring, 42, factory)
			ref := newReferenceSwitcher(0.3, tc.copies, tc.ring, 42, factory)
			for i, u := range streamF2Updates(6000, 11) {
				sw.Update(u.Item, u.Delta)
				ref.Update(u.Item, u.Delta)
				if sw.Estimate() != ref.Estimate() {
					t.Fatalf("update %d: estimate %v != reference %v", i, sw.Estimate(), ref.Estimate())
				}
				if sw.Switches() != ref.switches {
					t.Fatalf("update %d: switches %d != reference %d", i, sw.Switches(), ref.switches)
				}
				if sw.Exhausted() != ref.exhausted {
					t.Fatalf("update %d: exhausted %v != reference %v", i, sw.Exhausted(), ref.exhausted)
				}
				checkShape(t, i, sw, ref, true)
			}
			if ref.exhausted == tc.ring {
				t.Fatalf("exhausted %v after %d switches of %d copies: the dense case must outrun its budget, so the last instance is seen staying", ref.exhausted, ref.switches, tc.copies)
			}
		})
	}
}

// TestSwitcherBatchMatchesReference: a wrapper has no batch path of its
// own — sketch.ApplyBatch, the one batch loop (engine shard worker,
// Lagged, the adapter), feeds it update by update — so a wrapper fed in
// uneven chunks must agree with its per-update twin on published output
// and flip count at every chunk boundary. The Switcher's twin is the
// synchronous reference; robust.HeavyHitters has the same row in its own
// package, which this one cannot import.
func TestSwitcherBatchMatchesReference(t *testing.T) {
	factory := func(seed int64) sketch.Estimator {
		return fp.NewF2(fp.F2Sizing{Rows: 5, Width: 64}, rand.New(rand.NewSource(seed)))
	}
	sw := NewSwitcher(0.3, 24, false, 42, factory)
	ref := newReferenceSwitcher(0.3, 24, false, 42, factory)
	paths, pathsTwin := NewPaths(0.3, 64, factory(42)), NewPaths(0.3, 64, factory(42))
	for _, tc := range []struct {
		name string
		fed  sketch.Estimator
		twin interface {
			Update(item uint64, delta int64)
			Estimate() float64
		}
		flips func() (fed, twin int)
	}{
		{"switcher", sw, ref, func() (int, int) { return sw.Switches(), ref.switches }},
		{"paths", paths, pathsTwin, func() (int, int) { return paths.r.flips, pathsTwin.r.flips }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ups := streamF2Updates(6000, 13)
			for len(ups) > 0 {
				n := min(1+int(ups[0].Item)%97, len(ups))
				sketch.ApplyBatch(tc.fed, ups[:n])
				for _, u := range ups[:n] {
					tc.twin.Update(u.Item, u.Delta)
				}
				ups = ups[n:]
				if tc.fed.Estimate() != tc.twin.Estimate() {
					t.Fatalf("estimate %v != per-update twin %v", tc.fed.Estimate(), tc.twin.Estimate())
				}
				if fed, twin := tc.flips(); fed != twin {
					t.Fatalf("flips %d != per-update twin %d", fed, twin)
				}
			}
			if fed, _ := tc.flips(); fed < 8 {
				t.Fatalf("only %d flips: the chunks never straddled a published change", fed)
			}
		})
	}
	if sw.Robustness().Budget != 24 {
		t.Errorf("budget %d, want 24", sw.Robustness().Budget)
	}
}

// TestSwitcherMatchesReferenceAcrossDrains is the equality oracle that
// actually executes drain(): the stream is longer than three lag buffers,
// Zipf-skewed so most entries of a buffer repeat an item already in it,
// with small mixed-sign deltas so repeats net to zero now and then.
// Published output, switch count, exhaustion and live-copy count must match
// the synchronous reference after every update, and once the backlog is
// drained every live
// instance must hold the reference instance's estimate bit for bit.
func TestSwitcherMatchesReferenceAcrossDrains(t *testing.T) {
	f2 := func(seed int64) sketch.Estimator {
		return fp.NewF2(fp.F2Sizing{Rows: 5, Width: 64}, rand.New(rand.NewSource(seed)))
	}
	kmv := func(seed int64) sketch.Estimator {
		return f0.NewMedian(5, seed, func(s int64) sketch.Estimator {
			return f0.NewKMV(24, rand.New(rand.NewSource(s)))
		})
	}
	rng := rand.New(rand.NewSource(29))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<16)
	deltas := []int64{1, 1, 2, 3, -1, -2}
	ups := make([]sketch.Update, 3*PendingCap+777)
	for i := range ups {
		ups[i] = sketch.Update{Item: zipf.Uint64(), Delta: deltas[rng.Intn(len(deltas))]}
	}
	for _, tc := range []struct {
		name    string
		factory sketch.Factory
		ring    bool
		copies  int
		fixed   bool // the inner sketch allocates its whole footprint up front
	}{
		{"f2/dense", f2, false, 160, true},
		{"f2/ring", f2, true, RingCopies(0.3), true},
		{"kmv/dense", kmv, false, 96, false},
		{"kmv/ring", kmv, true, 12, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw := NewSwitcher(0.3, tc.copies, tc.ring, 42, tc.factory)
			ref := newReferenceSwitcher(0.3, tc.copies, tc.ring, 42, tc.factory)
			for i, u := range ups {
				sw.Update(u.Item, u.Delta)
				ref.Update(u.Item, u.Delta)
				if sw.Estimate() != ref.Estimate() || sw.Switches() != ref.switches || sw.Exhausted() != ref.exhausted {
					t.Fatalf("update %d: (estimate, switches, exhausted) = (%v, %d, %v), reference (%v, %d, %v)",
						i, sw.Estimate(), sw.Switches(), sw.Exhausted(), ref.Estimate(), ref.switches, ref.exhausted)
				}
				checkShape(t, i, sw, ref, tc.fixed)
			}
			if sw.Switches() < 8 {
				t.Fatalf("only %d switches; the stream must move instances between the drained groups", sw.Switches())
			}
			sw.lag.Drain()
			live := 0
			for i, inst := range sw.lag.instances {
				if inst == nil {
					continue
				}
				live++
				if got, want := inst.Estimate(), ref.instances[i].Estimate(); got != want {
					t.Errorf("instance %d after the final drain estimates %v, reference %v", i, got, want)
				}
			}
			if live < 2 {
				t.Fatalf("%d live instances; nothing trailing was compared", live)
			}
		})
	}
}
