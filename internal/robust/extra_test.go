package robust

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/f0"
	"repro/internal/game"
	"repro/internal/heavyhitters"
	"repro/internal/prf"
	"repro/internal/sketch"
	"repro/internal/stream"
)

func TestOracleF0AccuracyAndSpace(t *testing.T) {
	inner := f0.NewKMV(1024, rand.New(rand.NewSource(1)))
	alg, err := NewOracleF0(prf.NewOracle(7), inner)
	if err != nil {
		t.Fatal(err)
	}
	res := game.Run(alg,
		game.FromGenerator(stream.NewUniform(1<<14, 10000, 3)),
		(*stream.Freq).F0,
		game.RelCheck(0.15),
		game.Config{Warmup: 100})
	if res.Broken {
		t.Fatalf("oracle F0 broke at %d: est %v vs truth %v", res.BrokenAt, res.BrokenEst, res.BrokenTru)
	}
	// Theorem 1.3: in the random-oracle model the mapping is free, so the
	// robust algorithm's space equals the static sketch's space exactly.
	if alg.SpaceBytes() != inner.SpaceBytes() {
		t.Errorf("oracle F0 space %d != inner %d; the oracle must cost 0", alg.SpaceBytes(), inner.SpaceBytes())
	}
}

func TestOracleF0RejectsNonDuplicateInsensitive(t *testing.T) {
	if _, err := NewOracleF0(prf.NewOracle(1), f0.NewAlg2(f0.Alg2Params{B: 8, D: 8192}, 1)); err == nil {
		t.Error("batched Alg2 (d ≥ 8192) must be rejected")
	}
}

func TestFpPathsTracks(t *testing.T) {
	const eps = 0.5
	alg := mustWrap(t, Policy{Kind: Paths, StreamLen: 1 << 12, MaxCount: 1024, KCap: 2048}, eps, 0.001, 1<<10, 7, LpProblem(2))
	res := game.Run(alg,
		game.FromGenerator(stream.NewUniform(1<<10, 3000, 9)),
		(*stream.Freq).L2,
		game.RelCheck(2*eps),
		game.Config{Warmup: 50})
	if res.Broken {
		t.Fatalf("computation-paths L2 broke at %d: est %v vs truth %v",
			res.BrokenAt, res.BrokenEst, res.BrokenTru)
	}
}

func TestFpPathsLnInvDeltaRegime(t *testing.T) {
	// The Theorem 1.5 sizing must demand an astronomically small δ₀:
	// ln(1/δ₀) far beyond anything float64-representable as a probability.
	const n, eps = 1 << 20, 0.2
	prob := LpProblem(2)
	ln := core.PathsLnInvDelta(n, prob.FlipBound(eps/20, n, n), eps, prob.MaxValue(n, n), math.Log(1000))
	if ln < 700 { // e^{-700} is below float64's smallest positive value
		t.Errorf("ln(1/δ₀) = %v; expected the deep sub-float64 regime", ln)
	}
}

// TestRobustHeavyHittersUnderAdaptiveFlooder holds the flooder scenario of
// `experiments -exp hh` as a regression test: the flooder throttles whenever the published set
// contains it, so its behavior depends on the algorithm's outputs.
func TestRobustHeavyHittersUnderAdaptiveFlooder(t *testing.T) {
	const eps = 0.3
	const flood = uint64(0xBAD)
	hh := NewHeavyHitters(eps, 0.02, 1<<20, 1)
	truth := stream.NewFreq()
	rng := rand.New(rand.NewSource(99))
	var set []uint64
	contains := func(id uint64) bool {
		for _, s := range set {
			if s == id {
				return true
			}
		}
		return false
	}
	for step := 0; step < 15000; step++ {
		var u stream.Update
		switch {
		case step%5 == 0:
			u = stream.Update{Item: 1<<20 + uint64(step%4), Delta: 1}
		case step%2 == 0 && contains(flood):
			u = stream.Update{Item: rng.Uint64() % (1 << 20), Delta: 1}
		case step%2 == 0:
			u = stream.Update{Item: flood, Delta: 3}
		default:
			u = stream.Update{Item: rng.Uint64() % (1 << 20), Delta: 1}
		}
		hh.Update(u.Item, u.Delta)
		truth.Apply(u)
		if step%100 == 0 {
			set = hh.Set()
		}
	}
	set = hh.Set()
	for _, id := range truth.L2HeavyHitters(1.5 * eps) {
		if !contains(id) {
			t.Errorf("missed true 1.5ε-heavy flow %#x (count %d)", id, truth.Count(id))
		}
	}
	for _, id := range set {
		if math.Abs(float64(truth.Count(id))) < eps/4*truth.L2() {
			t.Errorf("false positive %#x (count %d)", id, truth.Count(id))
		}
	}
}

// TestDistributedShardsFeedRobustTracker combines the library features:
// shards sketch locally, serialize, merge at a coordinator — and the
// merged sketch continues as the seed state of further robust tracking.
func TestDistributedShardsFeedRobustTracker(t *testing.T) {
	origin := f0.NewKMV(512, rand.New(rand.NewSource(1)))
	shards := []*f0.KMV{origin.Fresh(), origin.Fresh(), origin.Fresh()}
	truth := stream.NewFreq()
	g := stream.NewUniform(1<<14, 30000, 5)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		shards[u.Item%3].Update(u.Item, u.Delta)
		truth.Apply(u)
	}
	merged := origin.Fresh()
	for _, s := range shards {
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var decoded f0.KMV
		if err := decoded.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(&decoded); err != nil {
			t.Fatal(err)
		}
	}
	if e := math.Abs(merged.Estimate()-truth.F0()) / truth.F0(); e > 0.15 {
		t.Fatalf("merged estimate error %v", e)
	}
	// Continue the stream on the merged sketch (a coordinator taking over
	// live tracking) and hand it to the crypto wrapper.
	alg, err := NewCryptoF0(prf.NewFromSeed(3), merged)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1 << 20); i < 1<<20+5000; i++ {
		alg.Update(i, 1)
		truth.Apply(stream.Update{Item: 1<<21 + i, Delta: 1}) // PRF remaps; track count only
	}
	if e := math.Abs(alg.Estimate()-truth.F0()) / truth.F0(); e > 0.15 {
		t.Fatalf("post-merge continued tracking error %v", e)
	}
}

// hhAnswers is everything a HeavyHitters publishes per coordinate.
type hhAnswers struct {
	points []float64
	top    []sketch.ItemWeight
	set    []uint64
}

func readHH(hh *HeavyHitters, items []uint64) hhAnswers {
	a := hhAnswers{top: hh.TopK(10), set: hh.Set()}
	for _, it := range items {
		a.points = append(a.points, hh.Query(it))
	}
	return a
}

// TestFrozenCopyIsOutOfTheRing: refresh moves the caught-up instance out
// of the ring instead of cloning it, which is sound only if nothing feeds
// the frozen instance again. Located on the stream itself: the first
// refresh followed by core.PendingCap quiet updates, which cross a ring
// drain wherever the refresh fell (where a copy still in a slot would be
// fed its backlog), must leave every per-coordinate answer bit-identical,
// and no slot may hold the pointer.
func TestFrozenCopyIsOutOfTheRing(t *testing.T) {
	const quiet = core.PendingCap
	hh := NewHeavyHitters(0.3, 0.05, 1<<20, 25)
	gen := stream.NewZipf(1<<12, 1<<19, 1.2, 31)
	items := make([]uint64, 16) // the heaviest ranks: every window feeds them
	for i := range items {
		items[i] = uint64(i)
	}
	var want hhAnswers
	since := -1 // updates since the last refresh; -1 before the first
	for since < quiet {
		u, ok := gen.Next()
		if !ok {
			t.Fatalf("no refresh followed by %d quiet updates: lengthen the stream", quiet)
		}
		before := hh.L2()
		hh.Update(u.Item, u.Delta)
		switch {
		case hh.L2() != before:
			want, since = readHH(hh, items), 0
		case since >= 0:
			since++
		}
	}
	if got := readHH(hh, items); !reflect.DeepEqual(got, want) {
		t.Errorf("frozen answers moved over %d updates without a refresh:\n got %+v\nwant %+v", quiet, got, want)
	}
	if want.points[0] == 0 || len(want.top) != 10 {
		t.Fatalf("frozen copy answers nothing (%+v): the comparison is vacuous", want)
	}
	for i := 0; i < hh.ring.Len(); i++ {
		if hh.ring.Current(i) == sketch.Estimator(hh.frozen) {
			t.Errorf("ring slot %d still holds the frozen instance", i)
		}
	}
}

// referenceHeavyHitters is Theorem 6.5 in its textbook synchronous form,
// the shape of core's referenceSwitcher: every ring copy ingests every
// update at once, and a refresh freezes the next copy where it stands and
// builds its replacement afresh. HeavyHitters' lag buffer, coalesced
// catch-up, drains and in-place restarts are performance machinery, so the
// two must publish the same answers.
type referenceHeavyHitters struct {
	eps    float64
	norm   *core.Switcher
	ring   []*heavyhitters.CountSketch
	next   int
	frozen *heavyhitters.CountSketch
	flips  int
	sizing heavyhitters.Sizing
	rng    *rand.Rand
}

func newReferenceHeavyHitters(eps, delta float64, n uint64, seed int64) *referenceHeavyHitters {
	copies, sizing := ringSizing(eps, delta)
	r := &referenceHeavyHitters{eps: eps, norm: NewFp(2, eps, delta/2, n, seed), sizing: sizing, rng: dist.Rand(seed + 0x5ee)}
	for range copies {
		r.ring = append(r.ring, heavyhitters.NewCountSketch(sizing, r.rng))
	}
	return r
}

func (r *referenceHeavyHitters) Update(item uint64, delta int64) {
	r.norm.Update(item, delta)
	for _, cs := range r.ring {
		cs.Update(item, delta)
	}
	if n := r.norm.Switches(); n != r.flips {
		r.flips = n
		r.frozen, r.ring[r.next] = r.ring[r.next], heavyhitters.NewCountSketch(r.sizing, r.rng)
		r.next = (r.next + 1) % len(r.ring)
	}
}

// answers is readHH for the reference.
func (r *referenceHeavyHitters) answers(items []uint64) hhAnswers {
	var a hhAnswers
	if r.frozen != nil {
		a.top, a.set = r.frozen.TopK(10), r.frozen.HeavyHitters(0.75*r.eps*r.norm.Estimate())
	}
	for _, it := range items {
		if r.frozen == nil {
			a.points = append(a.points, 0)
		} else {
			a.points = append(a.points, r.frozen.Query(it))
		}
	}
	return a
}

// TestHeavyHittersMatchesReference: over three full ring drains and a
// ragged tail of Zipf updates, HeavyHitters publishes bit for bit what the
// synchronous ring publishes — point queries of the 16 heaviest ranks and
// two absent items, TopK(10) and Set() — after every refresh and at the
// end.
func TestHeavyHittersMatchesReference(t *testing.T) {
	const eps, delta, n, seed = 0.3, 0.05, 1 << 20, 25
	hh, ref := NewHeavyHitters(eps, delta, n, seed), newReferenceHeavyHitters(eps, delta, n, seed)
	items := []uint64{1 << 40, 1<<40 + 1} // absent: the universe is [0, n)
	for i := range 16 {
		items = append(items, uint64(i))
	}
	m := 3*core.PendingCap + 777
	gen := stream.NewZipf(n, m, 1.2, 41)
	late := 0 // refreshes after the first ring drain
	for step := 1; ; step++ {
		u, ok := gen.Next()
		if !ok {
			break
		}
		flips := ref.flips
		hh.Update(u.Item, u.Delta)
		ref.Update(u.Item, u.Delta)
		if ref.flips == flips {
			continue
		}
		if step > core.PendingCap {
			late++
		}
		if got, want := readHH(hh, items), ref.answers(items); !reflect.DeepEqual(got, want) {
			t.Fatalf("refresh %d at update %d: published %+v, synchronous ring %+v", ref.flips, step, got, want)
		}
	}
	if got, want := readHH(hh, items), ref.answers(items); !reflect.DeepEqual(got, want) {
		t.Fatalf("at the end: published %+v, synchronous ring %+v", got, want)
	}
	if hh.Robustness().Switches != ref.flips || late < 3 {
		t.Fatalf("%d refreshes (reference %d), %d of them past the first drain: the comparison is too thin", hh.Robustness().Switches, ref.flips, late)
	}
}

// TestHeavyHittersBatchMatchesPerUpdate is the HeavyHitters row of
// core.TestSwitcherBatchMatchesReference: fed in uneven chunks through
// sketch.ApplyBatch, the one batch loop, it publishes what its per-update
// twin publishes at every chunk boundary.
func TestHeavyHittersBatchMatchesPerUpdate(t *testing.T) {
	fed, twin := NewHeavyHitters(0.3, 0.05, 1<<20, 25), NewHeavyHitters(0.3, 0.05, 1<<20, 25)
	var ups []sketch.Update
	for gen := stream.NewZipf(1<<12, 6000, 1.2, 13); ; {
		u, ok := gen.Next()
		if !ok {
			break
		}
		ups = append(ups, u)
	}
	items := []uint64{0, 1, 2, 3, 1 << 30}
	for len(ups) > 0 {
		n := min(1+int(ups[0].Item)%97, len(ups))
		sketch.ApplyBatch(fed, ups[:n])
		for _, u := range ups[:n] {
			twin.Update(u.Item, u.Delta)
		}
		ups = ups[n:]
		if fed.Estimate() != twin.Estimate() || fed.Robustness() != twin.Robustness() {
			t.Fatalf("chunk-fed (%v, %+v) != per-update twin (%v, %+v)", fed.Estimate(), fed.Robustness(), twin.Estimate(), twin.Robustness())
		}
		for _, it := range items {
			if fed.Query(it) != twin.Query(it) {
				t.Fatalf("Query(%d) = %v, per-update twin %v", it, fed.Query(it), twin.Query(it))
			}
		}
	}
	if got, want := readHH(fed, items), readHH(twin, items); !reflect.DeepEqual(got, want) {
		t.Errorf("chunk-fed answers %+v, per-update twin %+v", got, want)
	}
	if fed.Robustness().Switches < 8 {
		t.Fatalf("only %d refreshes: the chunks never straddled one", fed.Robustness().Switches)
	}
}
