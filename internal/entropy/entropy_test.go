package entropy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

func TestExactMatchesFreqReference(t *testing.T) {
	e := NewExact()
	f := stream.NewFreq()
	g := stream.NewZipf(1<<12, 20000, 1.3, 1)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		e.Update(u.Item, u.Delta)
		f.Apply(u)
		if math.Abs(e.Estimate()-f.Entropy()) > 1e-6 {
			t.Fatalf("at m=%d incremental entropy %v != reference %v",
				f.Updates(), e.Estimate(), f.Entropy())
		}
	}
}

func TestExactDegenerateStreams(t *testing.T) {
	e := NewExact()
	if e.Estimate() != 0 {
		t.Error("empty stream entropy should be 0")
	}
	e.Update(5, 1000)
	if e.Estimate() != 0 {
		t.Errorf("single-item entropy = %v, want 0", e.Estimate())
	}
	e.Update(6, 1000)
	if got := e.Estimate(); math.Abs(got-1) > 1e-12 {
		t.Errorf("two equal items entropy = %v, want 1 bit", got)
	}
}

func TestExactHandlesDeletionsBackToZero(t *testing.T) {
	e := NewExact()
	e.Update(1, 10)
	e.Update(2, 10)
	e.Update(2, -10)
	if got := e.Estimate(); got != 0 {
		t.Errorf("entropy after deleting item 2 = %v, want 0", got)
	}
}

func TestCCAccuracyUniform(t *testing.T) {
	// Uniform over 256 items: H = 8 bits.
	failures := 0
	const trials = 4
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 31))
		cc := NewCC(SizeCC(0.35, 0.05), rng)
		g := stream.NewUniform(256, 6000, int64(trial)+77)
		f := stream.NewFreq()
		for {
			u, ok := g.Next()
			if !ok {
				break
			}
			cc.Update(u.Item, u.Delta)
			f.Apply(u)
		}
		if math.Abs(cc.Estimate()-f.Entropy()) > 0.35 {
			failures++
		}
	}
	if failures > 1 {
		t.Errorf("%d/%d CC trials exceeded 0.35-bit additive error", failures, trials)
	}
}

func TestCCAccuracySkewed(t *testing.T) {
	failures := 0
	const trials = 4
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 61))
		cc := NewCC(SizeCC(0.35, 0.05), rng)
		g := stream.NewZipf(1<<14, 6000, 1.3, int64(trial)+99)
		f := stream.NewFreq()
		for {
			u, ok := g.Next()
			if !ok {
				break
			}
			cc.Update(u.Item, u.Delta)
			f.Apply(u)
		}
		if math.Abs(cc.Estimate()-f.Entropy()) > 0.35 {
			failures++
		}
	}
	if failures > 1 {
		t.Errorf("%d/%d CC trials exceeded 0.35-bit additive error on Zipf", failures, trials)
	}
}

func TestCCDegenerate(t *testing.T) {
	cc := NewCC(CCSizing{Groups: 3, Per: 16}, rand.New(rand.NewSource(1)))
	if cc.Estimate() != 0 {
		t.Error("empty-stream CC estimate should be 0")
	}
	cc.Update(3, 50)
	if got := cc.Estimate(); got > 0.2 {
		t.Errorf("single-item CC estimate = %v, want ≈ 0", got)
	}
	if cc.F1() != 50 {
		t.Errorf("F1 = %d, want 50", cc.F1())
	}
}

func TestCCEstimateWithinValidRange(t *testing.T) {
	cc := NewCC(CCSizing{Groups: 3, Per: 8}, rand.New(rand.NewSource(2))) // tiny sketch, noisy
	g := stream.NewUniform(1<<10, 5000, 3)
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		cc.Update(u.Item, u.Delta)
		h := cc.Estimate()
		if h < 0 || h > math.Log2(float64(cc.F1())+1) {
			t.Fatalf("estimate %v outside [0, log2(F1+1)]", h)
		}
	}
}

func TestSizeCCGrowsWithPrecision(t *testing.T) {
	a := SizeCC(0.5, 0.1)
	b := SizeCC(0.1, 0.01)
	if b.Per <= a.Per || b.Groups < a.Groups {
		t.Errorf("sizing must grow as (ε, δ) tighten: %+v vs %+v", a, b)
	}
}

func BenchmarkCCUpdate(b *testing.B) {
	cc := NewCC(SizeCC(0.2, 0.05), rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.Update(uint64(i%1000), 1)
	}
}

func BenchmarkExactUpdate(b *testing.B) {
	e := NewExact()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Update(uint64(i%1000), 1)
	}
}
