package fp

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hash"
	"repro/internal/order"
	"repro/internal/sketch"
	"repro/internal/stream"
)

func relErr(est, truth float64) float64 {
	if truth == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-truth) / truth
}

func TestDenseAMSUnbiasedOnRandomStream(t *testing.T) {
	const n, m = 512, 5000
	failures := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := NewDenseAMS(256, n, rng)
		f := stream.NewFreq()
		g := stream.NewUniform(n, m, int64(trial)+500)
		for {
			u, ok := g.Next()
			if !ok {
				break
			}
			s.Update(u.Item, u.Delta)
			f.Apply(u)
		}
		if relErr(s.Estimate(), f.Fp(2)) > 0.25 {
			failures++
		}
	}
	if failures > trials/4 {
		t.Errorf("%d/%d dense AMS trials exceeded 25%% error with t=256", failures, trials)
	}
}

func TestDenseAMSLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewDenseAMS(64, 128, rng)
	rng2 := rand.New(rand.NewSource(3))
	b := NewDenseAMS(64, 128, rng2)
	// Same randomness: one bulk update must equal repeated unit updates.
	a.Update(7, 5)
	for i := 0; i < 5; i++ {
		b.Update(7, 1)
	}
	if math.Abs(a.Estimate()-b.Estimate()) > 1e-9 {
		t.Errorf("bulk %v != repeated %v", a.Estimate(), b.Estimate())
	}
	// Deletion cancels exactly (linear sketch).
	a.Update(7, -5)
	if a.Estimate() != 0 {
		t.Errorf("after cancellation estimate = %v, want 0", a.Estimate())
	}
}

func TestDenseAMSPanicsOutsideUniverse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for item outside universe")
		}
	}()
	s := NewDenseAMS(4, 8, rand.New(rand.NewSource(1)))
	s.Update(8, 1)
}

func TestF2SketchAccuracy(t *testing.T) {
	const m = 20000
	failures := 0
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 40))
		sk := NewF2(SizeF2(0.1, 0.01), rng)
		f := stream.NewFreq()
		g := stream.NewZipf(1<<16, m, 1.3, int64(trial)+900)
		for {
			u, ok := g.Next()
			if !ok {
				break
			}
			sk.Update(u.Item, u.Delta)
			f.Apply(u)
		}
		if relErr(sk.Estimate(), f.Fp(2)) > 0.1 {
			failures++
		}
	}
	if failures > 1 {
		t.Errorf("%d/%d F2 sketch trials exceeded ε=0.1", failures, trials)
	}
}

func TestF2SketchTurnstileCancellation(t *testing.T) {
	prop := func(items []uint16, deltas []int8) bool {
		rng := rand.New(rand.NewSource(77))
		sk := NewF2(F2Sizing{Rows: 3, Width: 32}, rng)
		n := len(items)
		if len(deltas) < n {
			n = len(deltas)
		}
		for i := 0; i < n; i++ {
			sk.Update(uint64(items[i]), int64(deltas[i]))
		}
		for i := 0; i < n; i++ {
			sk.Update(uint64(items[i]), -int64(deltas[i]))
		}
		return sk.Estimate() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestF2SketchStrongTracking(t *testing.T) {
	// Size for δ/m and check the estimate at every step.
	const m = 5000
	const eps = 0.25
	rng := rand.New(rand.NewSource(11))
	sk := NewF2(SizeF2(eps, 0.01/float64(m)), rng)
	f := stream.NewFreq()
	g := stream.NewUniform(1<<12, m, 13)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		sk.Update(u.Item, u.Delta)
		f.Apply(u)
		if e := relErr(sk.Estimate(), f.Fp(2)); e > eps {
			t.Fatalf("tracking violated at step %d: err=%v", f.Updates(), e)
		}
	}
}

// TestAppendMediansMatchesAppendSigned: the block read's medians are, to
// the bit, order.Median over each item's AppendSigned — for every row count
// from 1 to 40, odd and even (the sorting network differs per count),
// blocks cut mid-pool, narrow and widened counters, turnstile deltas.
func TestAppendMediansMatchesAppendSigned(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for rows := 1; rows <= 40; rows++ {
		f := NewF2(F2Sizing{Rows: rows, Width: 4 + rng.Intn(60)}, rng)
		for i := 0; i < 500; i++ {
			f.Update(uint64(rng.Intn(300)), int64(rng.Intn(11)-5))
		}
		if rows%3 == 0 {
			f.Update(uint64(rng.Intn(300)), -1<<40) // widens
		}
		items := make([]uint64, 1+rng.Intn(400))
		for i := range items {
			items[i] = uint64(rng.Intn(350))
		}
		got := f.AppendMedians([]float64{-1}, items)
		if len(got) != 1+len(items) || got[0] != -1 {
			t.Fatalf("rows %d: AppendMedians returned %d values, want dst's 1 then %d", rows, len(got), len(items))
		}
		for i, item := range items {
			want := order.Median(f.AppendSigned(nil, item))
			if math.Float64bits(got[1+i]) != math.Float64bits(want) {
				t.Fatalf("rows %d, item %d: median %v, per-item %v", rows, item, got[1+i], want)
			}
		}
	}
}

func TestIndykAccuracyAcrossP(t *testing.T) {
	const m = 2000
	for _, p := range []float64{0.5, 1, 1.5, 2} {
		failures := 0
		const trials = 6
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(trial) + 7))
			sk := NewIndyk(p, 300, rng)
			f := stream.NewFreq()
			g := stream.NewZipf(1<<14, m, 1.4, int64(trial)+333)
			for {
				u, ok := g.Next()
				if !ok {
					break
				}
				sk.Update(u.Item, u.Delta)
				f.Apply(u)
			}
			if relErr(sk.Estimate(), f.Lp(p)) > 0.2 {
				failures++
			}
		}
		if failures > 1 {
			t.Errorf("p=%v: %d/%d Indyk trials exceeded 20%% error", p, failures, trials)
		}
	}
}

func TestIndykMomentConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sk := NewIndyk(1.5, 64, rng)
	sk.Update(3, 10)
	sk.Update(9, 4)
	norm := sk.Estimate()
	if got, want := sk.Moment(), math.Pow(norm, 1.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("Moment = %v, want norm^p = %v", got, want)
	}
	if sk.P() != 1.5 {
		t.Errorf("P() = %v, want 1.5", sk.P())
	}
}

func TestIndykTurnstileCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sk := NewIndyk(1, 32, rng)
	for i := uint64(0); i < 100; i++ {
		sk.Update(i, int64(i%7)+1)
	}
	for i := uint64(0); i < 100; i++ {
		sk.Update(i, -(int64(i%7) + 1))
	}
	// Floating-point counters cancel up to rounding residue.
	if got := sk.Estimate(); math.Abs(got) > 1e-9 {
		t.Errorf("after cancellation estimate = %v, want ≈ 0", got)
	}
}

func TestIndykVariateDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sk := NewIndyk(1.2, 16, rng)
	for j := 0; j < 16; j++ {
		a := sk.variate(12345, j)
		b := sk.variate(12345, j)
		if a != b {
			t.Fatalf("variate(12345, %d) not deterministic: %v vs %v", j, a, b)
		}
	}
}

func TestIndykRejectsBadP(t *testing.T) {
	for _, p := range []float64{0, -1, 2.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewIndyk accepted p = %v", p)
				}
			}()
			NewIndyk(p, 16, rand.New(rand.NewSource(1)))
		}()
	}
}

func TestMaxStableAccuracy(t *testing.T) {
	// Skewed stream: F3 is dominated by the heavy items, the easy and
	// common regime for p > 2 moments.
	for _, p := range []float64{3, 4} {
		failures := 0
		const trials = 6
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(trial) + 21))
			const n = 4096
			sk := NewMaxStable(p, 120, 3, SizeMaxStableWidth(p, n), rng)
			f := stream.NewFreq()
			g := stream.NewZipf(n, 8000, 1.5, int64(trial)+77)
			for {
				u, ok := g.Next()
				if !ok {
					break
				}
				sk.Update(u.Item, u.Delta)
				f.Apply(u)
			}
			if relErr(sk.Moment(), f.Fp(p)) > 0.35 {
				failures++
			}
		}
		if failures > 2 {
			t.Errorf("p=%v: %d/%d MaxStable trials exceeded 35%% error", p, failures, trials)
		}
	}
}

func TestMaxStableEmptyStream(t *testing.T) {
	sk := NewMaxStable(3, 8, 2, 16, rand.New(rand.NewSource(1)))
	if got := sk.Moment(); got != 0 {
		t.Errorf("empty-stream moment = %v, want 0", got)
	}
}

func TestMaxStableWidthShrinksWithP(t *testing.T) {
	// n^{1-2/p}: larger p needs more width; p → 2⁺ needs almost none.
	n := uint64(1 << 20)
	w3 := SizeMaxStableWidth(3, n)
	w6 := SizeMaxStableWidth(6, n)
	w21 := SizeMaxStableWidth(2.1, n)
	if !(w21 < w3 && w3 < w6) {
		t.Errorf("width ordering violated: w(2.1)=%d w(3)=%d w(6)=%d", w21, w3, w6)
	}
}

func TestMaxStableRejectsSmallP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMaxStable accepted p = 2")
		}
	}()
	NewMaxStable(2, 8, 2, 16, rand.New(rand.NewSource(1)))
}

// TestF2BatchKernelMatchesUpdate: the block kernel lands every counter,
// every row aggregate and every encoded byte where per-update calls do, at
// the batch lengths around its block boundaries and with signed deltas —
// also for a decoded sketch whose rows are not cubics (ReadRows takes any
// coefficient count), which hash through the Eval fallback.
func TestF2BatchKernelMatchesUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	odd := NewF2(F2Sizing{Rows: 3, Width: 5}, rng)
	odd.hs[0], odd.hs[2] = hash.NewPoly(2, rng), hash.PolyFromCoeffs(nil)
	for name, origin := range map[string]*F2Sketch{
		"cubic":     NewF2(F2Sizing{Rows: 5, Width: 134}, rng),
		"one-wide":  NewF2(F2Sizing{Rows: 3, Width: 1}, rng),
		"non-cubic": odd,
	} {
		for _, n := range []int{0, 1, f2Block - 1, f2Block, f2Block + 1, 3*f2Block + 7} {
			batch := make([]sketch.Update, n)
			for i := range batch {
				batch[i] = sketch.Update{Item: uint64(rng.Intn(40)), Delta: []int64{1, 2, -1, -3}[rng.Intn(4)]}
			}
			single, batched := origin.Fresh(), origin.Fresh()
			for round := 0; round < 2; round++ { // the second round lands on non-zero counters
				for _, u := range batch {
					single.Update(u.Item, u.Delta)
				}
				batched.UpdateBatch(batch)
			}
			for r := range single.sumSq {
				if math.Float64bits(single.sumSq[r]) != math.Float64bits(batched.sumSq[r]) {
					t.Errorf("%s, n = %d: row %d aggregate %v batched, %v per update", name, n, r, batched.sumSq[r], single.sumSq[r])
				}
			}
			a, _ := single.MarshalBinary()
			b, _ := batched.MarshalBinary()
			if !bytes.Equal(a, b) {
				t.Errorf("%s, n = %d: batched sketch encodes differently from the per-update one", name, n)
			}
		}
	}
}

func TestSizeF2Monotone(t *testing.T) {
	a := SizeF2(0.3, 0.1)
	b := SizeF2(0.1, 0.001)
	if b.Width <= a.Width || b.Rows < a.Rows {
		t.Errorf("sizing must grow as (ε, δ) tighten: %+v vs %+v", a, b)
	}
}

func BenchmarkF2Update(b *testing.B) {
	sk := NewF2(SizeF2(0.1, 0.001), rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(uint64(i), 1)
	}
}

// BenchmarkF2UpdateBatch is the drain's view of the kernel: the benchmark
// tenants' 13 × 4 800 sketch, a ring of eight copies so the counters are
// not cache-resident, 4 096-update Zipf batches; ns/op is per update per
// copy.
func BenchmarkF2UpdateBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	copies := make([]*F2Sketch, 8)
	for i := range copies {
		copies[i] = NewF2(F2Sizing{Rows: 13, Width: 4800}, rng)
	}
	z := rand.NewZipf(rng, 1.2, 1, 1<<20)
	batch := make([]sketch.Update, 4096)
	for i := range batch {
		batch[i] = sketch.Update{Item: z.Uint64(), Delta: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += len(batch) {
		copies[i/len(batch)%len(copies)].UpdateBatch(batch)
	}
}

func BenchmarkIndykUpdateP1(b *testing.B) {
	sk := NewIndyk(1, 256, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(uint64(i), 1)
	}
}

func BenchmarkIndykUpdateP05(b *testing.B) {
	sk := NewIndyk(0.5, 256, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(uint64(i), 1)
	}
}

func BenchmarkMaxStableUpdateP3(b *testing.B) {
	sk := NewMaxStable(3, 64, 2, 128, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(uint64(i), 1)
	}
}
