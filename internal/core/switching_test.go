package core

import (
	"math"
	"math/rand"
	"slices"
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
	// copy-count scaling is a property of the footprint before any flip.
	// Until the first drain only the active copy is built, so both hold
	// one; a drain builds the copies still owed.
	small := NewSwitcher(0.3, 2, false, 1, func(seed int64) sketch.Estimator {
		return f0.NewKMV(16, rand.New(rand.NewSource(seed)))
	})
	big := NewSwitcher(0.3, 8, false, 1, func(seed int64) sketch.Estimator {
		return f0.NewKMV(16, rand.New(rand.NewSource(seed)))
	})
	if big.SpaceBytes() != small.SpaceBytes() {
		t.Errorf("before a drain the 8-copy ensemble holds %d bytes, the 2-copy one %d: want one copy each", big.SpaceBytes(), small.SpaceBytes())
	}
	small.lag.Drain()
	big.lag.Drain()
	if liveBytes(big) < 3*liveBytes(small) {
		t.Errorf("after a drain the 8 copies hold %d bytes, not ≈ 4x the 2 copies' %d", liveBytes(big), liveBytes(small))
	}

	// A dense ensemble keeps its buffer folded, one entry per distinct item,
	// and charges the buffer and the fold's index as allocated, sized by the
	// updates pushed since the last drain: PendingCap slots and 2 ×
	// PendingCap however few items the buffer holds. PendingCap updates over
	// four items fold to four entries and leave a drain still owed, which a
	// direct Drain pays; the scratch stays. Four items keep the switch count
	// under the copy count, so trailing copies exist for the drain to feed.
	for i := 0; i < PendingCap; i++ {
		big.Update(uint64(i%4), 1)
	}
	if len(big.lag.pending) != 4 || big.lag.folded != 4 {
		t.Fatalf("after %d updates over 4 items: %d pending, %d folded; want a folded buffer of 4", PendingCap, len(big.lag.pending), big.lag.folded)
	}
	want := 16 + 16*PendingCap + 16*2*PendingCap
	if got := big.SpaceBytes() - liveBytes(big); got != want {
		t.Errorf("wrapper overhead %d bytes, want %d (output + lag buffer and its index)", got, want)
	}
	big.lag.Drain()
	if got := big.SpaceBytes() - liveBytes(big); len(big.lag.pending) != 0 || cap(big.lag.net) != 0 || got != want {
		t.Errorf("after a drain: %d pending, %d-entry scratch, overhead %d bytes; want an empty buffer, no scratch, and %d", len(big.lag.pending), cap(big.lag.net), got, want)
	}
}

func TestSwitcherRetirementShrinksSpace(t *testing.T) {
	// Dense mode: an instance whose value was published can never influence
	// an output again, so switching must release its space and report
	// fewer live copies. The inner sketch allocates its full footprint at
	// construction (unlike KMV, which grows as it fills), so retirement
	// shows up as an absolute drop. A first drain's worth of zero updates to
	// distinct items, which move no estimate and so spend no flip, builds
	// every copy first.
	sw := NewSwitcher(0.1, 8, false, 1, func(seed int64) sketch.Estimator {
		return fp.NewF2(fp.F2Sizing{Rows: 5, Width: 4096}, rand.New(rand.NewSource(seed)))
	})
	if got := sw.Robustness().Copies; got != 8 {
		t.Fatalf("fresh switcher reports %d live copies, want 8", got)
	}
	for i := range PendingCap {
		sw.Update(uint64(i), 0)
	}
	if got := liveBytes(sw); sw.Switches() != 0 || got != 8*sw.lag.instances[7].SpaceBytes() {
		t.Fatalf("after a first drain and %d switches: %d live bytes, want 8 copies", sw.Switches(), got)
	}
	g := stream.NewDistinct(5000)
	peak := sw.SpaceBytes()
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
// Switcher holds is a function of the reference's switch count and of
// whether the first drain (see drainsAt) has run. A ring keeps every slot;
// a dense ensemble of slots instances has spent one per switch, until the
// last one, which stays and keeps answering. Of those, a dense ensemble has
// built only the active one before the first drain (slots built: the
// switches plus one), and every one from it on. With fixedFootprint inner
// sketches (allocated whole at construction) the live bytes are that many
// instances exactly, so SpaceBytes — live bytes plus buffers a switch does
// not touch — never rises across a switch.
func checkShape(t *testing.T, i int, sw *Switcher, ref *referenceSwitcher, fixedFootprint, drained bool) {
	t.Helper()
	slots := len(ref.instances)
	want, built, resident := slots, slots, slots
	if !ref.ring {
		want = max(slots-ref.switches, 1)
		resident = want
		if !drained {
			built, resident = min(ref.switches+1, slots), 1
		}
	}
	if got := sw.Copies(); got != want {
		t.Fatalf("update %d: %d live copies after %d switches of %d slots, want %d", i, got, ref.switches, slots, want)
	}
	if sw.lag.built != built {
		t.Fatalf("update %d: %d slots built after %d switches of %d slots, want %d", i, sw.lag.built, ref.switches, slots, built)
	}
	if per := ref.instances[slots-1].SpaceBytes(); fixedFootprint && liveBytes(sw) != resident*per {
		t.Fatalf("update %d: %d live bytes, want %d copies of %d", i, liveBytes(sw), resident, per)
	}
}

// drainsAt lists the updates of ups after which a Switcher's lag buffer
// drains: every PendingCap-th update when the buffer is raw, and when it is
// folded the update that brings the PendingCap-th distinct item since the
// last drain.
func drainsAt(ups []sketch.Update, folded bool) []int {
	var at []int
	seen, since := map[uint64]bool{}, 0
	for i, u := range ups {
		seen[u.Item] = true
		if since++; folded && len(seen) == PendingCap || !folded && since == PendingCap {
			at = append(at, i)
			clear(seen)
			since = 0
		}
	}
	return at
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
				checkShape(t, i, sw, ref, true, false)
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
// actually executes drain(), and the oracle of the folded buffer. Each
// stream is long enough for three drains of a folded buffer: Zipf(1.2)
// items with small mixed-sign deltas, so most entries of a buffer repeat
// an item already in it and repeats net to zero now and then, and a
// turnstile stream of ±1 on the same items. Every ensemble runs beside a
// twin whose buffer stays raw, as a ring's does, and the synchronous
// reference. After every update both publish the reference's output,
// switch count and exhaustion, the folded ensemble holds the reference's
// shape, and each buffer has drained exactly where drainsAt puts it: the
// folded one at the PendingCap-th distinct item, the raw one at the
// PendingCap-th update. Once the backlog is drained every live instance of
// both must hold the reference instance's estimate bit for bit.
func TestSwitcherMatchesReferenceAcrossDrains(t *testing.T) {
	f2 := func(seed int64) sketch.Estimator {
		return fp.NewF2(fp.F2Sizing{Rows: 5, Width: 64}, rand.New(rand.NewSource(seed)))
	}
	kmv := func(seed int64) sketch.Estimator {
		return f0.NewMedian(5, seed, func(s int64) sketch.Estimator {
			return f0.NewKMV(24, rand.New(rand.NewSource(s)))
		})
	}
	stream := func(deltas []int64) []sketch.Update {
		rng := rand.New(rand.NewSource(29))
		zipf := rand.NewZipf(rng, 1.2, 1, 1<<30)
		ups := make([]sketch.Update, 400000)
		for i := range ups {
			ups[i] = sketch.Update{Item: zipf.Uint64(), Delta: deltas[rng.Intn(len(deltas))]}
		}
		return ups[:drainsAt(ups, true)[2]+778]
	}
	zipf, turnstile := stream([]int64{1, 1, 2, 3, -1, -2}), stream([]int64{1, -1})
	for _, tc := range []struct {
		name    string
		factory sketch.Factory
		ring    bool
		copies  int
		fixed   bool // the inner sketch allocates its whole footprint up front
		ups     []sketch.Update
	}{
		{"f2/dense", f2, false, 160, true, zipf},
		{"f2/dense/turnstile", f2, false, 160, true, turnstile},
		{"f2/ring", f2, true, RingCopies(0.3), true, zipf},
		{"kmv/dense", kmv, false, 128, false, zipf},
		{"kmv/ring", kmv, true, 12, false, zipf},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw := NewSwitcher(0.3, tc.copies, tc.ring, 42, tc.factory)
			raw := NewSwitcher(0.3, tc.copies, tc.ring, 42, tc.factory)
			raw.lag.fold = false
			if sw.lag.fold == tc.ring {
				t.Fatalf("folded buffer %v in a ring %v: want a dense ensemble's folded and a ring's raw", sw.lag.fold, tc.ring)
			}
			ref := newReferenceSwitcher(0.3, tc.copies, tc.ring, 42, tc.factory)
			want := map[*Switcher][]int{sw: drainsAt(tc.ups, !tc.ring), raw: drainsAt(tc.ups, false)}
			got := map[*Switcher][]int{}
			for i, u := range tc.ups {
				ref.Update(u.Item, u.Delta)
				for _, s := range []*Switcher{sw, raw} {
					s.Update(u.Item, u.Delta)
					if s.Estimate() != ref.Estimate() || s.Switches() != ref.switches || s.Exhausted() != ref.exhausted {
						t.Fatalf("update %d, folded %v: (estimate, switches, exhausted) = (%v, %d, %v), reference (%v, %d, %v)",
							i, s.lag.fold, s.Estimate(), s.Switches(), s.Exhausted(), ref.Estimate(), ref.switches, ref.exhausted)
					}
					if len(s.lag.pending) == 0 {
						got[s] = append(got[s], i)
					}
				}
				checkShape(t, i, sw, ref, tc.fixed, len(got[sw]) > 0)
			}
			for s, at := range got {
				if !slices.Equal(at, want[s]) {
					t.Fatalf("folded %v: drained after updates %v, want %v", s.lag.fold, at, want[s])
				}
			}
			if len(want[sw]) < 3 || sw.Switches() < 8 {
				t.Fatalf("%d drains, %d switches: the stream must move instances between the drained groups", len(want[sw]), sw.Switches())
			}
			live := 0
			for _, s := range []*Switcher{sw, raw} {
				s.lag.Drain()
				for i, inst := range s.lag.instances {
					if inst == nil {
						continue
					}
					live++
					if got, want := inst.Estimate(), ref.instances[i].Estimate(); got != want {
						t.Errorf("folded %v: instance %d after the final drain estimates %v, reference %v", s.lag.fold, i, got, want)
					}
				}
			}
			if live < 4 {
				t.Fatalf("%d live instances in the two ensembles; nothing trailing was compared", live)
			}
		})
	}
}

// TestLagBufferDrainCadence pins when a lag buffer drains. A dense kmv
// ensemble keeps its buffer folded, one entry per distinct item: 4 ×
// PendingCap updates over PendingCap/2 items never drain it, and fresh
// items then drain it at exactly the PendingCap-th distinct one. A ring's
// buffer stays raw, so the same stream drains it at the PendingCap-th
// update.
func TestLagBufferDrainCadence(t *testing.T) {
	kmv := func(seed int64) sketch.Estimator { return f0.NewKMV(16, rand.New(rand.NewSource(seed))) }
	var ups []sketch.Update
	for i := range 4 * PendingCap {
		ups = append(ups, sketch.Update{Item: uint64(i % (PendingCap / 2)), Delta: 1})
	}
	for i := range PendingCap {
		ups = append(ups, sketch.Update{Item: uint64(PendingCap + i), Delta: 1})
	}
	for _, tc := range []struct {
		name   string
		ring   bool
		copies int
		first  int // the update after which the buffer first drains
	}{
		{"kmv+switching", false, 128, 4*PendingCap + PendingCap/2 - 1},
		{"kmv+ring", true, RingCopies(0.3), PendingCap - 1},
	} {
		sw := NewSwitcher(0.3, tc.copies, tc.ring, 42, kmv)
		drained := -1
		for i, u := range ups {
			if sw.Update(u.Item, u.Delta); len(sw.lag.pending) == 0 {
				drained = i
				break
			}
		}
		if drained != tc.first || sw.Exhausted() {
			t.Errorf("%s: first drained after update %d (exhausted %v), want %d", tc.name, drained, sw.Exhausted(), tc.first)
		}
	}
}

// TestDrainBuildsEveryOwedSlot: a slot is owed until it is first read or
// until the first drain, because only until then does the lag buffer hold
// the whole stream a late-built copy must be fed. So a drain — the one
// Update triggers and a direct one alike — must build every owed slot
// before it empties the buffer: one that passed an owed slot would leave a
// copy built later from the post-drain suffix alone, whose estimates stop
// matching the reference's as soon as it is active. Six flips are spent,
// a direct drain follows, and the ensemble must hold every unspent slot
// built and equal to its reference instance, then keep matching the
// reference update for update until it exhausts.
func TestDrainBuildsEveryOwedSlot(t *testing.T) {
	factory := func(seed int64) sketch.Estimator {
		return fp.NewF2(fp.F2Sizing{Rows: 5, Width: 64}, rand.New(rand.NewSource(seed)))
	}
	const copies = 24
	sw := NewSwitcher(0.3, copies, false, 42, factory)
	ref := newReferenceSwitcher(0.3, copies, false, 42, factory)
	ups := streamF2Updates(6000, 17)
	fed := 0
	for ; sw.Switches() < 6; fed++ {
		sw.Update(ups[fed].Item, ups[fed].Delta)
		ref.Update(ups[fed].Item, ups[fed].Delta)
	}
	if sw.lag.built != sw.Switches()+1 {
		t.Fatalf("%d switches, %d slots built: want a few flips spent and most slots owed", sw.Switches(), sw.lag.built)
	}
	sw.lag.Drain()
	for i := sw.active; i < copies; i++ {
		inst := sw.lag.instances[i]
		if inst == nil {
			t.Fatalf("slot %d of %d (active %d) is unbuilt after a direct drain", i, copies, sw.active)
		}
		if got, want := inst.Estimate(), ref.instances[i].Estimate(); got != want {
			t.Fatalf("slot %d after the direct drain estimates %v, reference %v", i, got, want)
		}
	}
	for i, u := range ups[fed:] {
		sw.Update(u.Item, u.Delta)
		ref.Update(u.Item, u.Delta)
		if sw.Estimate() != ref.Estimate() || sw.Switches() != ref.switches || sw.Exhausted() != ref.exhausted {
			t.Fatalf("update %d past the drain: (estimate, switches, exhausted) = (%v, %d, %v), reference (%v, %d, %v)",
				fed+i, sw.Estimate(), sw.Switches(), sw.Exhausted(), ref.Estimate(), ref.switches, ref.exhausted)
		}
	}
	if !ref.exhausted {
		t.Fatal("the stream never reached the last slot: the owed slots were not all read")
	}
}
