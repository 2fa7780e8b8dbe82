package heavyhitters

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

func feed(t *testing.T, g stream.Generator, sinks ...interface {
	Update(uint64, int64)
}) *stream.Freq {
	t.Helper()
	f := stream.NewFreq()
	for {
		u, ok := g.Next()
		if !ok {
			return f
		}
		f.Apply(u)
		for _, s := range sinks {
			s.Update(u.Item, u.Delta)
		}
	}
}

func TestCountSketchPointQueryError(t *testing.T) {
	const eps = 0.1
	rng := rand.New(rand.NewSource(1))
	cs := NewCountSketch(SizeForPointQuery(eps, 1e-4), rng)
	f := feed(t, stream.NewZipf(1<<16, 30000, 1.2, 2), cs)
	l2 := f.L2()
	bad := 0
	checked := 0
	for _, it := range f.Support() {
		checked++
		if math.Abs(cs.Query(it)-float64(f.Count(it))) > eps*l2 {
			bad++
		}
		if checked >= 2000 {
			break
		}
	}
	if bad > checked/100 {
		t.Errorf("%d/%d point queries exceeded ε‖f‖₂", bad, checked)
	}
}

func TestCountSketchExactOnSparseStream(t *testing.T) {
	// With fewer items than buckets, collisions are unlikely and queries
	// are near-exact; with only one item they are exact.
	rng := rand.New(rand.NewSource(3))
	cs := NewCountSketch(Sizing{Rows: 5, Width: 256}, rng)
	cs.Update(42, 1000)
	if got := cs.Query(42); got != 1000 {
		t.Errorf("Query(42) = %v, want exactly 1000", got)
	}
	if got := cs.Query(43); got != 0 {
		t.Errorf("Query(43) = %v, want 0", got)
	}
}

func TestCountSketchHeavyHittersRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cs := NewCountSketch(SizeForPointQuery(0.05, 1e-4), rng)
	g := stream.NewHeavy(1<<18, 40000, 5, 0.5, 6)
	f := feed(t, g, cs)
	// Every true 0.1-L2 heavy hitter must be recovered at threshold
	// 0.05·L2 (the Definition 6.1 two-sided guarantee).
	thresh := 0.05 * f.L2()
	got := map[uint64]bool{}
	for _, it := range cs.HeavyHitters(thresh) {
		got[it] = true
	}
	for _, it := range f.L2HeavyHitters(0.1) {
		if !got[it] {
			t.Errorf("missed true heavy hitter %d (count %d)", it, f.Count(it))
		}
	}
	// And nothing below 0.025·L2 should appear.
	for it := range got {
		if math.Abs(float64(f.Count(it))) < 0.025*f.L2() {
			t.Errorf("false positive %d (count %d < %v)", it, f.Count(it), 0.025*f.L2())
		}
	}
}

func TestCountSketchF2Estimate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cs := NewCountSketch(SizeForPointQuery(0.1, 1e-3), rng)
	f := feed(t, stream.NewUniform(1<<14, 20000, 8), cs)
	if err := math.Abs(cs.Estimate()-f.Fp(2)) / f.Fp(2); err > 0.1 {
		t.Errorf("F2 estimate error = %v, want ≤ 0.1", err)
	}
	if l2 := cs.L2(); math.Abs(l2-f.L2())/f.L2() > 0.06 {
		t.Errorf("L2 estimate error too large: got %v, want ≈ %v", l2, f.L2())
	}
}

func TestCountSketchCandidatePoolBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cs := NewCountSketch(Sizing{Rows: 3, Width: 16}, rng)
	for i := uint64(0); i < 10000; i++ {
		cs.Update(i, 1)
	}
	if len(cs.pool.entries) > 2*cs.candCap+1 {
		t.Errorf("candidate pool grew to %d, cap is %d", len(cs.pool.entries), cs.candCap)
	}
}

func TestCountSketchTurnstile(t *testing.T) {
	prop := func(items []uint8, deltas []int8) bool {
		rng := rand.New(rand.NewSource(13))
		cs := NewCountSketch(Sizing{Rows: 3, Width: 32}, rng)
		n := len(items)
		if len(deltas) < n {
			n = len(deltas)
		}
		for i := 0; i < n; i++ {
			cs.Update(uint64(items[i]), int64(deltas[i]))
		}
		for i := 0; i < n; i++ {
			cs.Update(uint64(items[i]), -int64(deltas[i]))
		}
		return cs.Estimate() == 0 && cs.Query(0) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSpacePositive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cs := NewCountSketch(Sizing{Rows: 3, Width: 8}, rng)
	cs.Update(1, 1)
	if sb := cs.SpaceBytes(); sb <= 0 {
		t.Errorf("SpaceBytes = %d, want > 0", sb)
	}
}

func BenchmarkCountSketchUpdate(b *testing.B) {
	cs := NewCountSketch(SizeForPointQuery(0.05, 1e-4), rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Update(uint64(i), 1)
	}
}

func BenchmarkCountSketchQuery(b *testing.B) {
	cs := NewCountSketch(SizeForPointQuery(0.05, 1e-4), rand.New(rand.NewSource(1)))
	for i := 0; i < 10000; i++ {
		cs.Update(uint64(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Query(uint64(i % 10000))
	}
}

// BenchmarkCountSketchTopK ranks a full pool (the prune trigger, 8·width
// candidates): TopK(10) at the 9 × 89 sizing sketchd gives a countsketch
// tenant at ε = 0.3, and the whole pool of a 31 × 1 423 Theorem 6.5 ring
// copy, which the robust wrapper ranks once per refresh.
func BenchmarkCountSketchTopK(b *testing.B) {
	for _, c := range []struct {
		name string
		s    Sizing
		k    int
	}{
		{"static/k=10", Sizing{Rows: 9, Width: 89}, 10},
		{"ring/k=all", Sizing{Rows: 31, Width: 1423}, math.MaxInt},
	} {
		b.Run(c.name, func(b *testing.B) {
			cs := NewCountSketch(c.s, rand.New(rand.NewSource(1)))
			for i := 0; len(cs.pool.entries) < 2*cs.candCap; i++ {
				cs.Update(uint64(i)*0x9E3779B97F4A7C15, int64(1+i%7))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs.TopK(c.k)
			}
		})
	}
}
