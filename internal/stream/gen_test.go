package stream

import (
	"math"
	"testing"
)

func TestUniformGenLengthAndRange(t *testing.T) {
	const n, m = 128, 1000
	s := Collect(NewUniform(n, m, 42), 0)
	if len(s) != m {
		t.Fatalf("len = %d, want %d", len(s), m)
	}
	for _, u := range s {
		if u.Item >= n {
			t.Fatalf("item %d out of range [0,%d)", u.Item, n)
		}
		if u.Delta != 1 {
			t.Fatalf("delta = %d, want 1", u.Delta)
		}
	}
}

func TestUniformGenDeterministic(t *testing.T) {
	a := Collect(NewUniform(64, 100, 7), 0)
	b := Collect(NewUniform(64, 100, 7), 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := Collect(NewUniform(64, 100, 8), 0)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestZipfGenSkew(t *testing.T) {
	s := Collect(NewZipf(1<<16, 20000, 1.5, 3), 0)
	f := NewFreq()
	f.ApplyAll(s)
	// A Zipf(1.5) stream is heavily skewed: the top item should hold a
	// large constant fraction of the mass and F0 should be far below m.
	if top := float64(f.MaxAbs()); top < 0.2*f.F1() {
		t.Errorf("top item mass %v < 20%% of F1 %v; stream not skewed", top, f.F1())
	}
	if f.F0() > 0.5*float64(len(s)) {
		t.Errorf("F0 = %v too close to m = %d for a skewed stream", f.F0(), len(s))
	}
}

func TestDistinctGen(t *testing.T) {
	s := Collect(NewDistinct(500), 0)
	f := NewFreq()
	f.ApplyAll(s)
	if f.F0() != 500 {
		t.Errorf("F0 = %v, want 500", f.F0())
	}
	if math.Abs(f.Entropy()-math.Log2(500)) > 1e-9 {
		t.Errorf("Entropy = %v, want log2(500) = %v", f.Entropy(), math.Log2(500))
	}
}

func TestHeavyGenConcentratesMass(t *testing.T) {
	g := NewHeavy(1<<20, 50000, 4, 0.4, 11)
	s := Collect(g, 0)
	f := NewFreq()
	f.ApplyAll(s)
	var heavyMass float64
	for _, h := range g.Heavy() {
		heavyMass += float64(f.Count(h))
	}
	if frac := heavyMass / f.F1(); math.Abs(frac-0.4) > 0.05 {
		t.Errorf("heavy mass fraction = %v, want ≈ 0.4", frac)
	}
	// Every heavy item should be an L2 heavy hitter at a modest epsilon.
	hh := f.L2HeavyHitters(0.05)
	set := map[uint64]bool{}
	for _, i := range hh {
		set[i] = true
	}
	for _, h := range g.Heavy() {
		if !set[h] {
			t.Errorf("heavy item %d missing from exact L2 heavy hitters", h)
		}
	}
}

func TestInsertDeleteGenReturnsToZero(t *testing.T) {
	s := Collect(NewInsertDelete(300), 0)
	if len(s) != 600 {
		t.Fatalf("len = %d, want 600", len(s))
	}
	f := NewFreq()
	half := NewFreq()
	for i, u := range s {
		f.Apply(u)
		if i == 299 {
			half.ApplyAll(s[:300])
		}
	}
	if half.F0() != 300 {
		t.Errorf("midpoint F0 = %v, want 300", half.F0())
	}
	if f.F0() != 0 || f.F1() != 0 {
		t.Errorf("final F0 = %v, F1 = %v, want 0, 0", f.F0(), f.F1())
	}
}

func TestBoundedDeletionInvariantHolds(t *testing.T) {
	for _, p := range []float64{1, 1.5, 2} {
		for _, alpha := range []float64{1.5, 4, 16} {
			g := NewBoundedDeletion(256, 4000, p, alpha, 0.45, 5)
			f := NewFreq()
			h := NewFreq()
			step := 0
			for {
				u, ok := g.Next()
				if !ok {
					break
				}
				step++
				f.Apply(u)
				hu := u
				if hu.Delta < 0 {
					hu.Delta = -hu.Delta
				}
				h.Apply(hu)
				if fp, hp := f.Fp(p), h.Fp(p); fp < hp/alpha-1e-9 {
					t.Fatalf("p=%v α=%v: invariant violated at step %d: Fp(f)=%v < Fp(h)/α=%v",
						p, alpha, step, fp, hp/alpha)
				}
			}
			if step != 4000 {
				t.Fatalf("generator emitted %d updates, want 4000", step)
			}
		}
	}
}

func TestBoundedDeletionActuallyDeletes(t *testing.T) {
	g := NewBoundedDeletion(256, 4000, 1, 8, 0.45, 5)
	s := Collect(g, 0)
	dels := 0
	for _, u := range s {
		if u.Delta < 0 {
			dels++
		}
	}
	if dels == 0 {
		t.Error("bounded-deletion generator produced no deletions")
	}
	if dels > len(s)/2 {
		t.Errorf("deletions = %d out of %d; more deletions than insertions is impossible", dels, len(s))
	}
}

func TestCollectMax(t *testing.T) {
	s := Collect(NewDistinct(1000), 10)
	if len(s) != 10 {
		t.Errorf("Collect with max=10 returned %d updates", len(s))
	}
}
