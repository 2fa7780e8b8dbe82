package f0

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/hash"
	"repro/internal/sketch"
	"repro/internal/stream"
)

func relErr(est, truth float64) float64 {
	if truth == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-truth) / truth
}

func TestExactCountsDistinct(t *testing.T) {
	e := NewExact()
	for _, it := range []uint64{1, 2, 1, 3, 2, 1} {
		e.Update(it, 1)
	}
	if e.Estimate() != 3 {
		t.Errorf("Estimate = %v, want 3", e.Estimate())
	}
	if !e.DuplicateInsensitive() {
		t.Error("Exact must be duplicate-insensitive")
	}
}

func TestKMVExactBelowK(t *testing.T) {
	s := NewKMV(64, rand.New(rand.NewSource(1)))
	for i := uint64(0); i < 50; i++ {
		s.Update(i, 1)
		s.Update(i, 1) // duplicates must not count
	}
	if got := s.Estimate(); got != 50 {
		t.Errorf("Estimate = %v, want exactly 50 (below k)", got)
	}
}

func TestKMVAccuracy(t *testing.T) {
	const truth = 20000
	var failures int
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		s := NewKMV(400, rand.New(rand.NewSource(int64(trial))))
		for i := uint64(0); i < truth; i++ {
			s.Update(i*2654435761+7, 1)
		}
		if relErr(s.Estimate(), truth) > 0.2 {
			failures++
		}
	}
	if failures > trials/4 {
		t.Errorf("%d/%d trials exceeded 20%% error with k=400", failures, trials)
	}
}

func TestKMVDuplicateInsensitiveProperty(t *testing.T) {
	// Feeding a stream and feeding its deduplicated version must produce
	// identical estimates, for any multiplicity pattern.
	prop := func(items []uint8, repeats []uint8) bool {
		a := NewKMV(16, rand.New(rand.NewSource(5)))
		b := NewKMV(16, rand.New(rand.NewSource(5)))
		seen := map[uint64]bool{}
		n := len(items)
		for i := 0; i < n; i++ {
			it := uint64(items[i])
			r := 1
			if i < len(repeats) {
				r += int(repeats[i]) % 4
			}
			for j := 0; j < r; j++ {
				a.Update(it, 1)
			}
			if !seen[it] {
				seen[it] = true
				b.Update(it, 1)
			}
		}
		return a.Estimate() == b.Estimate()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMedianReducesVariance(t *testing.T) {
	const truth = 10000
	med := NewMedian(9, 42, func(seed int64) sketch.Estimator {
		return NewKMV(200, rand.New(rand.NewSource(seed)))
	})
	for i := uint64(0); i < truth; i++ {
		med.Update(i*11400714819323198485+3, 1)
	}
	if e := relErr(med.Estimate(), truth); e > 0.15 {
		t.Errorf("median-of-9 relative error = %v, want ≤ 0.15", e)
	}
	if !med.DuplicateInsensitive() {
		t.Error("Median of KMVs must be duplicate-insensitive")
	}
}

// constEst is a fixed-estimate stub for exercising Median's selection.
type constEst float64

func (c constEst) Update(uint64, int64) {}
func (c constEst) Estimate() float64    { return float64(c) }
func (c constEst) SpaceBytes() int      { return 8 }

func TestMedianOfHelper(t *testing.T) {
	medianOf := func(xs ...float64) float64 {
		i := 0
		m := NewMedian(len(xs), 0, func(int64) sketch.Estimator { i++; return constEst(xs[i-1]) })
		m.Estimate() // a second call must not see the first one's partition
		return m.Estimate()
	}
	if got := medianOf(3, 1, 2); got != 2 {
		t.Errorf("Median.Estimate odd = %v, want 2", got)
	}
	if got := medianOf(4, 1, 2, 3); got != 2.5 {
		t.Errorf("Median.Estimate even = %v, want 2.5", got)
	}
	if got := medianOf(7); got != 7 {
		t.Errorf("Median.Estimate single = %v, want 7", got)
	}
}

func TestTrackingStrongGuarantee(t *testing.T) {
	// (ε, δ)-strong tracking: the estimate stays within (1±ε) of the true
	// F0 at *every* step of the stream.
	const eps = 0.25
	tr := NewTracking(eps, 0.05, 1<<20, 7)
	f := stream.NewFreq()
	g := stream.NewUniform(1<<18, 30000, 3)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		tr.Update(u.Item, u.Delta)
		f.Apply(u)
		if e := relErr(tr.Estimate(), f.F0()); e > eps {
			t.Fatalf("tracking violated at m=%d: est=%v true=%v err=%v",
				f.Updates(), tr.Estimate(), f.F0(), e)
		}
	}
}

func TestTrackingSizingMonotone(t *testing.T) {
	loose := TrackingSizing(0.5, 0.1, 1<<20)
	tight := TrackingSizing(0.1, 0.01, 1<<20)
	if tight.K <= loose.K {
		t.Errorf("K should grow as ε shrinks: %d vs %d", tight.K, loose.K)
	}
	if tight.Reps < loose.Reps {
		t.Errorf("Reps should not shrink as δ shrinks: %d vs %d", tight.Reps, loose.Reps)
	}
}

func TestAlg2ExactMode(t *testing.T) {
	a := NewAlg2(Alg2Params{B: 100, D: 8}, 1)
	for i := uint64(0); i < 300; i++ { // below exactCap = 500
		a.Update(i, 1)
		a.Update(i, 1)
	}
	if got := a.Estimate(); got != 300 {
		t.Errorf("exact-mode estimate = %v, want 300", got)
	}
}

func TestAlg2Accuracy(t *testing.T) {
	const truth = 200000
	failures := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		a := NewAlg2(Alg2Sizing(0.25, 3, 1<<20), int64(trial)+100)
		for i := uint64(0); i < truth; i++ {
			a.Update(i*2654435761+uint64(trial), 1)
		}
		if relErr(a.Estimate(), truth) > 0.3 {
			failures++
		}
	}
	if failures > 2 {
		t.Errorf("%d/%d Alg2 trials exceeded 30%% error", failures, trials)
	}
}

func TestAlg2TrackingAcrossScales(t *testing.T) {
	// The estimate must stay reasonable as F0 sweeps from the exact regime
	// through several level hand-offs.
	a := NewAlg2(Alg2Sizing(0.25, 4, 1<<20), 9)
	f := stream.NewFreq()
	for i := uint64(0); i < 500000; i++ {
		item := i * 11400714819323198485
		a.Update(item, 1)
		f.Apply(stream.Update{Item: item, Delta: 1})
		if i%50000 == 49999 {
			if e := relErr(a.Estimate(), f.F0()); e > 0.35 {
				t.Fatalf("at F0=%v: est=%v err=%v", f.F0(), a.Estimate(), e)
			}
		}
	}
}

// TestAlg2PicksHashingByDegree: below alg2BatchDegree an instance hashes by
// Horner's rule, holds no buffer and declares itself duplicate-insensitive;
// from it up it buffers d items per multipoint evaluation and does not.
func TestAlg2PicksHashingByDegree(t *testing.T) {
	below := NewAlg2(Alg2Params{B: 10, D: alg2BatchDegree - 1}, 1)
	for i := uint64(0); i < 100; i++ {
		below.Update(i, 1)
	}
	if below.batch || below.buf != nil || !below.DuplicateInsensitive() {
		t.Errorf("d = %d: batch=%v, %d buffered, duplicate-insensitive=%v; want Horner, no buffer, true",
			alg2BatchDegree-1, below.batch, len(below.buf), below.DuplicateInsensitive())
	}
	at := NewAlg2(Alg2Params{B: 10, D: alg2BatchDegree}, 1)
	at.Update(1, 1)
	if !at.batch || len(at.buf) != 1 || at.DuplicateInsensitive() {
		t.Errorf("d = %d: batch=%v, %d buffered, duplicate-insensitive=%v; want batched, 1, false",
			alg2BatchDegree, at.batch, len(at.buf), at.DuplicateInsensitive())
	}
}

// The two hashings place every item identically, so whichever one the
// degree selects, the estimates agree whenever the batch buffer is empty.
func TestAlg2BatchedMatchesUnbatchedAtFlushBoundaries(t *testing.T) {
	for _, p := range []Alg2Params{{B: 50, D: 16}, {B: 20, D: 100}, {B: 5, D: alg2BatchDegree}} {
		ab, au := NewAlg2(p, 3), NewAlg2(p, 3)
		ab.batch, au.batch = true, false
		for i := 0; i < max(p.D, 10000/p.D*p.D); i++ {
			item := uint64(i) * 6364136223846793005
			ab.Update(item, 1)
			au.Update(item, 1)
			if (i+1)%p.D == 0 {
				if got, want := ab.Estimate(), au.Estimate(); got != want {
					t.Fatalf("%+v at %d: batched=%v unbatched=%v", p, i+1, got, want)
				}
			}
		}
	}
}

func TestAlg2SizingGrowsWithDelta(t *testing.T) {
	small := Alg2Sizing(0.2, 2, 1<<20)
	big := Alg2Sizing(0.2, 200, 1<<20)
	if big.B <= small.B || big.D <= small.D {
		t.Errorf("sizing must grow with log(1/δ): %+v vs %+v", small, big)
	}
}

func TestLevelDistribution(t *testing.T) {
	// level(h) should be j with probability ≈ 2^{-(j+1)} for uniform h.
	rng := rand.New(rand.NewSource(17))
	counts := make([]int, alg2Levels)
	const n = 1 << 20
	for i := 0; i < n; i++ {
		h := rng.Uint64() % (1 << 61)
		counts[level(h)]++
	}
	for j := 0; j < 8; j++ {
		want := float64(n) * math.Pow(2, -float64(j+1))
		if math.Abs(float64(counts[j])-want) > 0.05*want+50 {
			t.Errorf("level %d count %d, want ≈ %v", j, counts[j], want)
		}
	}
}

func TestSpaceBytesPositive(t *testing.T) {
	ests := []sketch.Estimator{
		NewExact(),
		NewKMV(16, rand.New(rand.NewSource(1))),
		NewAlg2(Alg2Params{B: 20, D: 8}, 1),
		NewTracking(0.3, 0.1, 1024, 1),
	}
	for _, e := range ests {
		e.Update(42, 1)
		if e.SpaceBytes() <= 0 {
			t.Errorf("%T: SpaceBytes = %d, want > 0", e, e.SpaceBytes())
		}
	}
}

func BenchmarkKMVUpdate(b *testing.B) {
	s := NewKMV(1024, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(uint64(i), 1)
	}
}

// benchTenantCopy is one copy of the benchmark's kmv+switching tenant — a
// median of 17 × KMV(1 113) — and a Zipf(1.2) item source for it.
func benchTenantCopy() (*Median, *rand.Zipf) {
	m := NewMedian(17, 1, func(seed int64) sketch.Estimator {
		return NewKMV(1113, rand.New(rand.NewSource(seed)))
	})
	return m, rand.NewZipf(rand.New(rand.NewSource(2)), 1.2, 1, 1<<20)
}

// BenchmarkKMVSingleInsert prices the accepted single insert, which shifts
// O(K) words: 2 M all-distinct items through Update, from empty, at the
// benchmark's K (ε 0.3), the server default's (ε 0.2) and two no workload
// reaches (ε 0.1, ε 0.05).
func BenchmarkKMVSingleInsert(b *testing.B) {
	const inserts = 2_000_000
	for _, k := range []int{1113, 2501, 10001, 40001} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := NewKMV(k, rand.New(rand.NewSource(1)))
				for item := uint64(0); item < inserts; item++ {
					s.Update(item, 1)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/inserts, "ns/update")
		})
	}
}

// BenchmarkKMVActivePath is the active copy: one update and one estimate
// at a time.
func BenchmarkKMVActivePath(b *testing.B) {
	m, z := benchTenantCopy()
	items := make([]uint64, 30000)
	for i := range items {
		items[i] = z.Uint64()
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Update(items[i%len(items)], 1)
		sink += m.Estimate()
	}
	_ = sink
}

// BenchmarkKMVDrain is a trailing copy: fed 16 384-update lag buffers
// through UpdateBatch only; ns/op is per update.
func BenchmarkKMVDrain(b *testing.B) {
	m, z := benchTenantCopy()
	batch := make([]sketch.Update, 16384)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(batch) {
		b.StopTimer()
		for j := range batch {
			batch[j] = sketch.Update{Item: z.Uint64(), Delta: 1}
		}
		b.StartTimer()
		m.UpdateBatch(batch)
	}
}

// BenchmarkKMVFirstDrains is a trailing copy where the workload keeps it,
// F0 a few times k rather than far above it: a fresh copy fed the first four
// coalesced 16 384-update Zipf(1.2) lag buffers, as drains feed it, so a
// third of what it hashes lands under the threshold and is ordered. ns/update
// is per buffered update.
func BenchmarkKMVFirstDrains(b *testing.B) {
	_, z := benchTenantCopy()
	var co sketch.Coalescer
	buffers := make([][]sketch.Update, 4)
	raw := make([]sketch.Update, 16384)
	for i := range buffers {
		for j := range raw {
			raw[j] = sketch.Update{Item: z.Uint64(), Delta: 1}
		}
		buffers[i] = co.Coalesce(nil, raw)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, _ := benchTenantCopy()
		b.StartTimer()
		for _, buf := range buffers {
			m.UpdateBatch(buf)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(buffers)*len(raw)), "ns/update")
}

// BenchmarkKMVPlace orders a full candidate scratch, 512 values, by
// placement and by slices.Sort: uniform under a threshold, as a KMV's
// candidates are, and all in one bucket, the adversary's input, on which
// placement counts, gives up and sorts.
func BenchmarkKMVPlace(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	uniform, oneBucket := make([]uint64, placeMax), make([]uint64, placeMax)
	for i := range uniform {
		uniform[i] = rng.Uint64() % (hash.Prime / 3)
		oneBucket[i] = 1<<60 | rng.Uint64()>>20
	}
	for _, in := range []struct {
		name string
		vals []uint64
	}{{"uniform", uniform}, {"one-bucket", oneBucket}} {
		for _, order := range []struct {
			name string
			f    func([]uint64)
		}{{"place", place}, {"sort", slices.Sort[[]uint64]}} {
			b.Run(in.name+"/"+order.name, func(b *testing.B) {
				c := make([]uint64, len(in.vals))
				for i := 0; i < b.N; i++ {
					copy(c, in.vals)
					order.f(c)
				}
			})
		}
	}
}

// BenchmarkAlg2Update is one benchmark per side of alg2BatchDegree.
func BenchmarkAlg2Update(b *testing.B) {
	for _, d := range []int{64, alg2BatchDegree} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			a := NewAlg2(Alg2Params{B: 1000, D: d}, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Update(uint64(i), 1)
			}
		})
	}
}
