package robust

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/f0"
	"repro/internal/game"
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
// refresh followed by 1 000 quiet updates that cross a ring drain (where a
// copy still in a slot would be fed its backlog) must leave every
// per-coordinate answer bit-identical, and no slot may hold the pointer.
func TestFrozenCopyIsOutOfTheRing(t *testing.T) {
	const quiet = 1000
	hh := NewHeavyHitters(0.3, 0.05, 1<<20, 25)
	gen := stream.NewZipf(1<<12, 60000, 1.2, 31)
	items := make([]uint64, 16) // the heaviest ranks: every window feeds them
	for i := range items {
		items[i] = uint64(i)
	}
	var want hhAnswers
	since, drains := -1, false // updates since the last refresh; -1 before the first
	for step := 0; ; step++ {
		u, ok := gen.Next()
		if !ok {
			t.Fatalf("no refresh followed by %d quiet updates across a drain: lengthen the stream", quiet)
		}
		before := hh.L2()
		hh.Update(u.Item, u.Delta)
		switch {
		case hh.L2() != before:
			want, since = readHH(hh, items), 0
			drains = (step+1)%ringLagBound+quiet >= ringLagBound
		case since >= 0:
			since++
		}
		if since == quiet && drains {
			break
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
