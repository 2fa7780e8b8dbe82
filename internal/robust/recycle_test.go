package robust

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fp"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// climb feeds est deltas an eighth of its published norm, so the norm
// passes a rounding boundary every twenty updates or so, until flips() has
// grown by n; it returns the bytes allocated per flip on the way. Counters
// stay far inside int32.
func climb(t *testing.T, est sketch.Estimator, flips func() int, n int) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := flips()
	for i := uint64(0); flips() < start+n; i++ {
		if i > 100000 {
			t.Fatalf("%d flips after %d climbing updates, want %d", flips()-start, i, n)
		}
		est.Update(i%1024, 1+int64(est.Estimate()/8))
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestRingFlipRecycles: a ring restarts a slot in the memory it holds. A
// flip of an f2+ring Switcher costs its seed's rand.NewSource (5 KB) and
// the row polynomials, a refresh of the Theorem 6.5 ring the same for its
// norm tracker plus one CountSketch's polynomials — not the ~500 KB copy
// each used to build and abandon.
func TestRingFlipRecycles(t *testing.T) {
	warm := func(est sketch.Estimator) { // past a drain, so the lag buffers have their size
		for i := uint64(0); i < 20000; i++ {
			est.Update(i%1024, 1)
		}
	}
	sw := NewFp(2, 0.3, 0.05, 1<<20, 7)
	warm(sw)
	if per := climb(t, sw, sw.Switches, 50); per >= 16<<10 {
		t.Errorf("an f2+ring flip allocates %d bytes, want < 16 KiB", per)
	}
	hh := NewHeavyHitters(0.3, 0.05, 1<<20, 25)
	warm(hh)
	if hh.frozen == nil {
		t.Fatal("no refresh during warm-up: the first one builds its restart copy and must not be measured")
	}
	if per := climb(t, hh, func() int { return hh.Robustness().Switches }, 50); per >= 16<<10 {
		t.Errorf("a Theorem 6.5 refresh allocates %d bytes, want < 16 KiB", per)
	}
}

// TestDenseFlipRecycles: a dense ensemble builds a copy only when it
// becomes active, so before its first drain each flip makes the next copy —
// in the memory of the copy it spends, since an F2 sketch restarts in
// place. A flip of the benchmark's f2+switching tenant (ε 0.3, λ 80) then
// costs the row polynomials and a catch-up over the buffer, not the ~100 KB
// copy the factory would build; and until the drain only the active copy
// is resident.
func TestDenseFlipRecycles(t *testing.T) {
	est, err := Policy{Kind: Switching, Budget: 80}.Wrap(0.3, 0.05, 1<<20, 7, LpProblem(2))
	if err != nil {
		t.Fatal(err)
	}
	sw := est.(*core.Switcher)
	est.Update(0, 1) // the first flip, which sizes nothing
	if per := climb(t, sw, sw.Switches, 50); per >= 16<<10 {
		t.Errorf("an f2+switching flip before the first drain allocates %d bytes, want < 16 KiB", per)
	}
	if r := sw.Robustness(); r.Copies != 80-r.Switches || sw.SpaceBytes() > 1<<20 {
		t.Fatalf("robustness %+v, %d bytes: want one copy resident, before the first drain", r, sw.SpaceBytes())
	}
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestSwitchingSpaceIsResident: SpaceBytes is what every reported byte
// count trusts, so the heap the benchmark's f2+switching tenant (ε 0.3,
// λ 80) keeps must sit within [1.0, 1.35] × its declaration both before its
// first drain, when only the active copy is built, and after it, when every
// copy not yet spent is. Its lag buffer is folded, so the first drain comes
// with the PendingCap-th distinct item of the Zipf(1.2) stream.
func TestSwitchingSpaceIsResident(t *testing.T) {
	// The stream up to a thousand distinct items past the drain, and where
	// it holds one short of the drain's PendingCap.
	var ups []sketch.Update
	short, seen := 0, map[uint64]bool{}
	for gen := stream.NewZipf(1<<20, 1<<20, 1.2, 31); len(seen) < core.PendingCap+1000; {
		u, _ := gen.Next()
		if seen[u.Item] = true; len(seen) < core.PendingCap {
			short = len(ups) + 1
		}
		ups = append(ups, sketch.Update{Item: u.Item, Delta: u.Delta})
	}
	seen = nil
	liveHeap() // the first collection frees what the test binary's start-up left
	before := liveHeap()
	est, err := Policy{Kind: Switching, Budget: 80}.Wrap(0.3, 0.05, 1<<20, 7, LpProblem(2))
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		live, declared := liveHeap()-before, est.SpaceBytes()
		if ratio := float64(live) / float64(declared); ratio < 1.0 || ratio > 1.35 {
			t.Errorf("%s: %d bytes live against %d declared (%.2f×), want within [1.0, 1.35]", when, live, declared, ratio)
		}
	}
	sketch.ApplyBatch(est, ups[:short])
	check("before the first drain")
	sketch.ApplyBatch(est, ups[short:])
	check("after the first drain")
	if r := est.(sketch.RobustnessReporter).Robustness(); r.Exhausted || r.Copies < 10 {
		t.Fatalf("robustness %+v: want an unexhausted ensemble with copies built at the drain", r)
	}
	runtime.KeepAlive(ups)
	runtime.KeepAlive(est)
}

// TestRingSpaceIsResident: the benchmark's countsketch+ring tenant (ε 0.3)
// keeps its 44 CountSketch copies, each pool reserved whole, so after six
// full ring drains of a Zipf(1.2) stream, when the pools have filled, the
// heap it keeps must sit within [1.0, 1.35] × its declaration, as
// TestSwitchingSpaceIsResident asks of a dense ensemble. A pool kept as a
// map, beside a prune scratch, read 1.69× (1.30× after three drains).
func TestRingSpaceIsResident(t *testing.T) {
	liveHeap()
	before := liveHeap()
	est, err := Policy{Kind: Ring}.Wrap(0.3, 0.05, 1<<20, 7, HHL2Problem())
	if err != nil {
		t.Fatal(err)
	}
	hh := est.(*HeavyHitters)
	gen := stream.NewZipf(1<<20, 6*core.PendingCap+1000, 1.2, 31)
	for u, ok := gen.Next(); ok; u, ok = gen.Next() {
		hh.Update(u.Item, u.Delta)
	}
	if hh.TopK(10); hh.Robustness().Switches < 3 {
		t.Fatalf("robustness %+v: want refreshes, so the frozen copy and its ranking are held", hh.Robustness())
	}
	live, declared := liveHeap()-before, hh.SpaceBytes()
	t.Logf("%d bytes live, %d declared (%.3f×)", live, declared, float64(live)/float64(declared))
	if ratio := float64(live) / float64(declared); ratio < 1.0 || ratio > 1.35 {
		t.Errorf("%d bytes live against %d declared (%.2f×), want within [1.0, 1.35]", live, declared, ratio)
	}
	runtime.KeepAlive(hh)
}

// TestTopKRanksOncePerRefresh: the cached ranking answers what the frozen
// copy would, for every k, across refreshes, and is not the caller's to
// scribble on.
func TestTopKRanksOncePerRefresh(t *testing.T) {
	hh := NewHeavyHitters(0.3, 0.05, 1<<20, 25)
	gen := stream.NewZipf(1<<12, 8000, 1.2, 13)
	for step := 1; ; step++ {
		u, ok := gen.Next()
		if !ok {
			break
		}
		hh.Update(u.Item, u.Delta)
		if step%500 != 0 {
			continue
		}
		for _, k := range []int{10, 1, 0, 3, math.MaxInt} {
			got, want := hh.TopK(k), hh.frozen.TopK(k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: TopK(%d) = %v, the frozen copy ranks %v", step, k, got, want)
			}
			for i := range got {
				got[i].Weight = -1
			}
		}
	}
	if hh.Robustness().Switches < 8 || len(hh.TopK(10)) != 10 {
		t.Fatalf("%d refreshes, top-10 of %d: the comparison is vacuous", hh.Robustness().Switches, len(hh.TopK(10)))
	}
}

// TestWideDeltaWidensEveryCopy: one client update with a 2³¹ delta reaches
// every copy of an f2+switching ensemble — the active one at once, the
// trailing ones at the drain, through the batch kernel — and each trades
// its int32 counters for int64 ones. What is resident doubles and stays
// under what admission priced; what is published does not notice: the
// ensemble agrees, update for update, with one whose copies were all-int64
// from birth.
func TestWideDeltaWidensEveryCopy(t *testing.T) {
	const (
		eps, delta = 0.25, 0.05
		n, seed    = 1 << 16, 5
	)
	pol, prob := Policy{Kind: Switching, Budget: 64, KCap: 64}, LpProblem(2)
	got := mustWrap(t, pol, eps, delta, n, seed, prob).(*core.Switcher)

	pl, err := pol.plan(eps, delta, n, prob)
	if err != nil {
		t.Fatal(err)
	}
	sizing := f2Sizing(pl.eps0, trackingLnInv(pl.eps0, pl.lnInvDelta, n), pol.KCap)
	ref := core.NewSwitcher(pl.eps, pl.copies, false, seed, func(s int64) sketch.Estimator {
		k := fp.NewF2(sizing, rand.New(rand.NewSource(s)))
		k.Update(0, 1<<32)      // out of int32 under either sign and back: wide for
		k.Update(0, -(1 << 32)) // good, counters and aggregates at zero again, exactly
		return mapAdapter{k, math.Sqrt}
	})
	narrow := got.SpaceBytes()
	if wide := ref.SpaceBytes(); float64(wide) < 1.95*float64(narrow) {
		t.Fatalf("the all-int64 reference holds %d bytes against %d narrow: it is not wide", wide, narrow)
	}

	step := func(i int, item uint64, d int64) {
		t.Helper()
		got.Update(item, d)
		ref.Update(item, d)
		if got.Estimate() != ref.Estimate() || got.Robustness() != ref.Robustness() {
			t.Fatalf("update %d: (%v, %+v), all-int64 reference (%v, %+v)", i, got.Estimate(), got.Robustness(), ref.Estimate(), ref.Robustness())
		}
	}
	for i := 0; i < 100; i++ { // some twenty flips of the sixty-four
		step(i, uint64(i%64), 1)
	}
	if got.SpaceBytes() >= ref.SpaceBytes() {
		t.Fatalf("unit updates alone brought the ensemble to %d bytes, the reference's %d", got.SpaceBytes(), ref.SpaceBytes())
	}
	step(100, 5, 1<<31)
	for i := 101; i < 101+20000; i++ { // past the lag bound: the drain carries the delta to every trailing copy
		step(i, uint64(i%64), 1)
	}
	projected := pol.StateBytes(eps, delta, n, prob)
	if after := got.SpaceBytes(); after != ref.SpaceBytes() || float64(after) > projected {
		t.Errorf("after one 2^31 delta the ensemble holds %d bytes; the all-int64 reference %d, the admission projection %.0f", after, ref.SpaceBytes(), projected)
	}
	if r := got.Robustness(); r.Exhausted || r.Copies < 32 {
		t.Fatalf("%+v: too few copies left for the footprint to say anything", r)
	}
}
