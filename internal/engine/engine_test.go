package engine

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/entropy"
	"repro/internal/f0"
	"repro/internal/heavyhitters"
	"repro/internal/robust"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// collect drains a generator into a reusable slice of updates.
func collect(g stream.Generator) []Update {
	var out []Update
	for {
		u, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, Update{Item: u.Item, Delta: u.Delta})
	}
}

// feedTruth applies updates to a frequency vector for ground truth.
func feedTruth(ups []Update) *stream.Freq {
	f := stream.NewFreq()
	for _, u := range ups {
		f.Apply(stream.Update{Item: u.Item, Delta: u.Delta})
	}
	return f
}

// TestExactShardingIsLossless: with exact per-shard estimators, routing by
// hash and combining must reproduce the global statistic exactly — the
// sharpest check that the shard → batch → merge plumbing loses nothing.
func TestExactShardingIsLossless(t *testing.T) {
	ups := collect(stream.NewZipf(1<<12, 60000, 1.2, 7))
	truth := feedTruth(ups)

	t.Run("f0-sum", func(t *testing.T) {
		e := New(Config{
			Shards:  8,
			Batch:   64,
			Seed:    3,
			Factory: func(seed int64) sketch.Estimator { return f0.NewExact() },
		})
		defer e.Close()
		for _, u := range ups {
			e.Update(u.Item, u.Delta)
		}
		if got, want := e.Estimate(), truth.F0(); got != want {
			t.Fatalf("sharded exact F0 = %v, want %v", got, want)
		}
	})

	t.Run("entropy-chain-rule", func(t *testing.T) {
		e := New(Config{
			Shards:  8,
			Batch:   64,
			Seed:    3,
			Combine: Entropy,
			Factory: func(seed int64) sketch.Estimator { return entropy.NewExact() },
		})
		defer e.Close()
		for _, u := range ups {
			e.Update(u.Item, u.Delta)
		}
		got, want := e.Estimate(), truth.Entropy()
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("sharded exact entropy = %v, want %v (chain-rule combiner broken)", got, want)
		}
	})
}

// TestShardedRobustF0Conformance: the acceptance test of the engine —
// sharded-and-merged robust estimates agree with an unsharded reference
// (and with the truth) within the configured ε.
func TestShardedRobustF0Conformance(t *testing.T) {
	const eps = 0.2
	ups := collect(stream.NewUniform(1<<12, 30000, 11))
	truth := feedTruth(ups).F0()

	ref := robust.NewF0(eps, 0.05, 1<<20, 5)
	for _, u := range ups {
		ref.Update(u.Item, u.Delta)
	}

	e := New(Config{
		Shards: 8,
		Batch:  128,
		Seed:   5,
		Factory: func(seed int64) sketch.Estimator {
			return robust.NewF0(eps, 0.05, 1<<20, seed)
		},
	})
	defer e.Close()
	for _, u := range ups {
		e.Update(u.Item, u.Delta)
	}

	sharded, unsharded := e.Estimate(), ref.Estimate()
	if relErr(sharded, truth) > eps {
		t.Errorf("sharded robust F0 = %v, truth %v: rel err %.3f > ε=%.2f",
			sharded, truth, relErr(sharded, truth), eps)
	}
	if relErr(unsharded, truth) > eps {
		t.Errorf("unsharded robust F0 = %v, truth %v: rel err %.3f > ε=%.2f",
			unsharded, truth, relErr(unsharded, truth), eps)
	}
	// Both are within ε of the truth, hence within ~2ε of each other; use
	// the direct form the acceptance criterion states.
	if relErr(sharded, unsharded) > 2*eps {
		t.Errorf("sharded %v vs unsharded %v differ by %.3f > 2ε",
			sharded, unsharded, relErr(sharded, unsharded))
	}
}

// TestShardedRobustL2Conformance: same conformance check for a norm
// statistic through the Norm(2) power-sum combiner.
func TestShardedRobustL2Conformance(t *testing.T) {
	const eps = 0.3
	ups := collect(stream.NewZipf(1<<10, 25000, 1.1, 13))
	truth := feedTruth(ups).L2()

	e := New(Config{
		Shards:  8,
		Batch:   128,
		Seed:    9,
		Combine: Norm(2),
		Factory: func(seed int64) sketch.Estimator {
			return robust.NewFp(2, eps, 0.05, 1<<16, seed)
		},
	})
	defer e.Close()
	for _, u := range ups {
		e.Update(u.Item, u.Delta)
	}
	if got := e.Estimate(); relErr(got, truth) > eps {
		t.Errorf("sharded robust L2 = %v, truth %v: rel err %.3f > ε=%.2f",
			got, truth, relErr(got, truth), eps)
	}
}

// TestConcurrentProducers hammers one engine from many goroutines and
// checks the result is still exact (run under -race in CI).
func TestConcurrentProducers(t *testing.T) {
	const producers, perProducer = 8, 20000
	e := New(Config{
		Shards:  4,
		Batch:   32,
		Seed:    1,
		Factory: func(seed int64) sketch.Estimator { return f0.NewExact() },
	})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				// Overlapping ranges: distinct count is the union.
				e.Update(uint64(p*perProducer/2+i), 1)
			}
		}(p)
	}
	wg.Wait()
	want := float64((producers-1)*perProducer/2 + perProducer)
	if got := e.Estimate(); got != want {
		t.Fatalf("concurrent exact F0 = %v, want %v", got, want)
	}
	e.Close()
	if got := e.Estimate(); got != want {
		t.Fatalf("estimate after Close = %v, want %v", got, want)
	}
}

// TestReadsDoNotShapeUpdates is the in-process twin of the server's
// TestReadsDoNotShapeTheTenant: one Update stream into an f2+switching
// engine ends in the same (estimate, switches) whether nobody reads it, an
// Estimate lands every 100 updates, or one lands every 7. A read seals the
// shard buffers, so it decides when the work runs; if it also cut the
// parts the workers coalesce, it would decide what the robust wrappers see
// and how many flips they spend.
func TestReadsDoNotShapeUpdates(t *testing.T) {
	ups := collect(stream.NewZipf(1<<12, 40000, 1.1, 5))
	run := func(every int) (float64, int) {
		e := New(Config{
			Shards: 2,
			Seed:   7,
			Factory: func(seed int64) sketch.Estimator {
				est, err := robust.Policy{Kind: robust.Switching, Budget: 512, KCap: 64}.Wrap(0.3, 0.05, 1<<16, seed, robust.LpProblem(2))
				if err != nil {
					t.Fatal(err)
				}
				return est
			},
		})
		defer e.Close()
		for i, u := range ups {
			e.Update(u.Item, u.Delta)
			if every > 0 && (i+1)%every == 0 {
				e.Estimate()
			}
		}
		est := e.Estimate()
		r := e.Read().Robustness
		if r.Exhausted {
			t.Fatalf("flip budget exhausted (%+v): the switch counts could no longer differ", r)
		}
		return est, r.Switches
	}
	est, switches := run(0)
	t.Logf("no reads: estimate %v, %d switches", est, switches)
	for _, every := range []int{100, 7} {
		gotEst, gotSwitches := run(every)
		t.Logf("an Estimate every %d updates: estimate %v, %d switches", every, gotEst, gotSwitches)
		if gotEst != est || gotSwitches != switches {
			t.Errorf("an Estimate every %d updates: (estimate, switches) = (%v, %d), unread (%v, %d)",
				every, gotEst, gotSwitches, est, switches)
		}
	}
}

// TestCloseSemantics: Close is idempotent, flushes the tail of the stream,
// and further Updates panic.
func TestCloseSemantics(t *testing.T) {
	e := New(Config{
		Shards:  2,
		Batch:   1024, // never fills: Close must flush the pending tail
		Seed:    4,
		Factory: func(seed int64) sketch.Estimator { return f0.NewExact() },
	})
	for i := 0; i < 100; i++ {
		e.Update(uint64(i), 1)
	}
	e.Close()
	e.Close() // idempotent
	if got := e.Estimate(); got != 100 {
		t.Fatalf("estimate after Close = %v, want 100 (tail not flushed)", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Update after Close did not panic")
		}
	}()
	e.Update(1, 1)
}

// TestSpaceBytesAccounts: the engine charges the shard estimators plus its
// own buffers.
func TestSpaceBytesAccounts(t *testing.T) {
	e := New(Config{
		Shards:  4,
		Batch:   64,
		Seed:    6,
		Factory: func(seed int64) sketch.Estimator { return f0.NewExact() },
	})
	defer e.Close()
	for i := 0; i < 1000; i++ {
		e.Update(uint64(i), 1)
	}
	e.Flush()
	if est, min := e.SpaceBytes(), 8*1000; est < min {
		t.Fatalf("SpaceBytes = %d, want >= %d (4 exact shards hold 1000 ids)", est, min)
	}
	if e.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", e.Shards())
	}
}

// TestSpaceBytesVisibleBeforeFirstRefresh: the shard estimators' footprint
// is published at construction, not only after the first worker refresh.
func TestSpaceBytesVisibleBeforeFirstRefresh(t *testing.T) {
	e := New(Config{
		Shards: 2,
		Batch:  32,
		Seed:   1,
		Factory: func(seed int64) sketch.Estimator {
			return f0.NewKMV(64, rand.New(rand.NewSource(seed)))
		},
	})
	defer e.Close()
	if est := e.SpaceBytes(); est < 2*16 {
		t.Fatalf("SpaceBytes = %d before first refresh, want >= %d (two empty KMV shards, a 16-byte hash each)",
			est, 2*16)
	}
}

// sumSq is an exact turnstile Σf_i² tracker: a linear-in-delta reference
// for checking that batch coalescing preserves turnstile semantics.
type sumSq struct{ counts map[uint64]int64 }

func (s *sumSq) Update(item uint64, delta int64) { s.counts[item] += delta }
func (s *sumSq) SpaceBytes() int                 { return 16 * len(s.counts) }
func (s *sumSq) Estimate() float64 {
	var t float64
	for _, c := range s.counts {
		t += float64(c) * float64(c)
	}
	return t
}

// TestCoalescePreservesTurnstile: mixed-sign duplicate-heavy batches,
// coalesced before they reach the estimator, must produce exactly the
// state of the uncoalesced stream.
func TestCoalescePreservesTurnstile(t *testing.T) {
	e := New(Config{
		Shards:  4,
		Batch:   64,
		Seed:    8,
		Factory: func(seed int64) sketch.Estimator { return &sumSq{counts: make(map[uint64]int64)} },
	})
	defer e.Close()
	truth := stream.NewFreq()
	for i := 0; i < 30000; i++ {
		item := uint64(i % 37) // heavy duplication within every batch
		delta := int64(1)
		if i%3 == 0 {
			delta = -2
		}
		e.Update(item, delta)
		truth.Apply(stream.Update{Item: item, Delta: delta})
	}
	if got, want := e.Estimate(), truth.Fp(2); got != want {
		t.Errorf("coalesced Σf² = %v, want %v", got, want)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestQueryPointsAndTopK: the structured-query combiners of QueryBatch.
// Point estimates come from the owning shard alone (routing makes every
// other shard's coordinate exactly zero), so each answer must be within
// the per-shard CountSketch guarantee of the true count; the top-k must
// merge per-shard candidate sets into the true global heavy hitters.
func TestQueryPointsAndTopK(t *testing.T) {
	sizing := heavyhitters.SizeForPointQuery(0.1, 0.01)
	eng := New(Config{
		Shards: 4,
		Batch:  64,
		Factory: func(seed int64) sketch.Estimator {
			return heavyhitters.NewCountSketch(sizing, rand.New(rand.NewSource(seed)))
		},
		Seed: 3,
	})
	defer eng.Close()

	truth := stream.NewFreq()
	gen := stream.NewZipf(1<<10, 40000, 1.3, 5)
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		truth.Apply(u)
		eng.Update(u.Item, u.Delta)
	}

	// Point queries: heavy items, light items, and never-seen items.
	items := []uint64{0, 1, 2, 3, 100, 1 << 40}
	_, got, top, err := eng.QueryBatch(items, 5)
	if err != nil {
		t.Fatal(err)
	}
	bound := 0.1 * truth.L2() // per-shard L2 ≤ global L2
	for i, item := range items {
		want := float64(truth.Count(item))
		if math.Abs(got[i]-want) > bound {
			t.Errorf("point f[%d] = %v, true %v (bound %v)", item, got[i], want, bound)
		}
	}

	// TopK: the merged candidate set must surface the true top items.
	if len(top) != 5 {
		t.Fatalf("top-5 returned %d items", len(top))
	}
	inTop := map[uint64]bool{}
	for i, iw := range top {
		inTop[iw.Item] = true
		if i > 0 && math.Abs(top[i-1].Weight) < math.Abs(iw.Weight) {
			t.Errorf("TopK not sorted: |%v| < |%v| at %d", top[i-1].Weight, iw.Weight, i)
		}
		if math.Abs(iw.Weight-float64(truth.Count(iw.Item))) > bound {
			t.Errorf("TopK weight for %d = %v, true %d", iw.Item, iw.Weight, truth.Count(iw.Item))
		}
	}
	// Zipf 1.3: items 0..2 dominate and must be present.
	for _, item := range []uint64{0, 1, 2} {
		if !inTop[item] {
			t.Errorf("true heavy hitter %d missing from TopK: %v", item, top)
		}
	}

	// A non-point-querying estimator refuses with ErrNoPointQueries.
	plain := New(Config{
		Shards:  2,
		Factory: func(seed int64) sketch.Estimator { return f0.NewKMV(64, rand.New(rand.NewSource(seed))) },
		Seed:    1,
	})
	defer plain.Close()
	plain.Update(1, 1)
	if _, _, _, err := plain.QueryBatch([]uint64{1}, 0); !errors.Is(err, ErrNoPointQueries) {
		t.Errorf("point query on kmv engine: err = %v, want ErrNoPointQueries", err)
	}
	if _, _, _, err := plain.QueryBatch(nil, 3); !errors.Is(err, ErrNoPointQueries) {
		t.Errorf("top-k on kmv engine: err = %v, want ErrNoPointQueries", err)
	}
}

// slowSum is a deliberately slow exact Σdelta estimator used to widen the
// window between Close marking shards closed and the workers finishing
// their queues.
type slowSum struct {
	sum   int64
	delay time.Duration
}

func (s *slowSum) Update(item uint64, delta int64) { time.Sleep(s.delay); s.sum += delta }
func (s *slowSum) Estimate() float64               { return float64(s.sum) }
func (s *slowSum) SpaceBytes() int                 { return 8 }

// TestEstimateDuringCloseSeesFinalState: a read racing Close must reflect
// the fully-drained stream, not a stale published snapshot. This pins the
// drain-coherence contract the server relies on: queries served while (or
// after) an engine is Close()d — sketchd's shutdown drain — return the
// final state because Flush waits for closing shards' workers to exit.
func TestEstimateDuringCloseSeesFinalState(t *testing.T) {
	// Fewer updates than refreshEvery keep the published snapshot stale
	// until a flush; one-update buffers fill the queue, so the worker
	// still has queueDepth slow updates to go when the loop returns.
	const n = 50
	e := New(Config{
		Shards:  1,
		Batch:   1,
		Seed:    1,
		Factory: func(int64) sketch.Estimator { return &slowSum{delay: time.Millisecond} },
	})
	for i := 0; i < n; i++ {
		e.Update(uint64(i), 1)
	}
	if stale := e.Read().Shards[0].Estimate; stale >= n {
		t.Skip("worker drained before Close could race it") // can't exercise the race
	}
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	// Wait until the shards observe the close (delta-0 probes are inert for
	// a Σdelta estimator), then read mid-drain.
	for e.Apply([]Update{{Item: 0, Delta: 0}}) {
		time.Sleep(20 * time.Microsecond)
	}
	if got := e.Estimate(); got != n {
		t.Fatalf("Estimate racing Close = %v, want %v (stale published snapshot leaked)", got, n)
	}
	<-closed
	if got := e.Estimate(); got != n {
		t.Fatalf("Estimate after Close = %v, want %v", got, n)
	}
}

// counter reports its update count as everything it publishes: estimate,
// space and every robustness field. Fed one-update parts of delta 1, the
// worker's mass tally is that count too, so one publish is recognisable
// by all its fields agreeing.
type counter struct{ n int }

func (c *counter) Update(uint64, int64) { c.n++ }
func (c *counter) Estimate() float64    { return float64(c.n) }
func (c *counter) SpaceBytes() int      { return c.n }
func (c *counter) Robustness() sketch.Robustness {
	return sketch.Robustness{Copies: c.n, Switches: c.n, Budget: c.n}
}

// TestReadingIsOneRecordPerShard: a reading takes every number from one
// published record per shard. A writer and a flushing goroutine keep one
// shard publishing while the test reads; a reading whose estimate, mass,
// copies and switches disagree mixed two publishes.
func TestReadingIsOneRecordPerShard(t *testing.T) {
	e := New(Config{Shards: 1, Batch: 1, Seed: 1, Factory: func(int64) sketch.Estimator { return &counter{} }})
	defer e.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
				e.Update(i, 1)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Flush()
			}
		}
	}()
	const reads = 300000
	torn, moved := 0, 0
	last := -1.0
	for i := 0; i < reads; i++ {
		r := e.Read()
		s := r.Shards[0]
		if float64(s.Mass) != s.Estimate || float64(r.Robustness.Copies) != s.Estimate ||
			float64(r.Robustness.Switches) != s.Estimate || r.Estimate != s.Estimate || !r.Robust {
			torn++
			if torn <= 3 {
				t.Errorf("reading %d mixes publishes: %+v", i, r)
			}
		}
		if s.Estimate != last {
			moved++
			last = s.Estimate
		}
	}
	close(stop)
	wg.Wait()
	if torn > 0 {
		t.Fatalf("%d of %d readings mixed two publishes", torn, reads)
	}
	t.Logf("%d readings over %d publishes, none torn", reads, moved)
}
