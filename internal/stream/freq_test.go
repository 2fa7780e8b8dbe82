package stream

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFreqBasicCounts(t *testing.T) {
	f := NewFreq()
	f.Apply(Update{Item: 1, Delta: 3})
	f.Apply(Update{Item: 2, Delta: 1})
	f.Apply(Update{Item: 1, Delta: -1})
	if got := f.Count(1); got != 2 {
		t.Errorf("Count(1) = %d, want 2", got)
	}
	if got := f.Count(2); got != 1 {
		t.Errorf("Count(2) = %d, want 1", got)
	}
	if got := f.Count(3); got != 0 {
		t.Errorf("Count(3) = %d, want 0", got)
	}
	if got := f.Updates(); got != 3 {
		t.Errorf("Updates() = %d, want 3", got)
	}
}

func TestFreqF0RemovesZeroedItems(t *testing.T) {
	f := NewFreq()
	f.Apply(Update{Item: 7, Delta: 5})
	f.Apply(Update{Item: 8, Delta: 2})
	if got := f.F0(); got != 2 {
		t.Fatalf("F0 = %v, want 2", got)
	}
	f.Apply(Update{Item: 7, Delta: -5})
	if got := f.F0(); got != 1 {
		t.Fatalf("F0 after cancellation = %v, want 1", got)
	}
	if got := len(f.Support()); got != 1 {
		t.Fatalf("Support size = %d, want 1", got)
	}
}

func TestFreqMoments(t *testing.T) {
	f := NewFreq()
	// f = (3, -4): F1 = 7, F2 = 25, L2 = 5, F0 = 2.
	f.Apply(Update{Item: 0, Delta: 3})
	f.Apply(Update{Item: 1, Delta: -4})
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"F0", f.F0(), 2},
		{"F1", f.F1(), 7},
		{"F2", f.Fp(2), 25},
		{"L2", f.L2(), 5},
		{"F3", f.Fp(3), 27 + 64},
		{"MaxAbs", float64(f.MaxAbs()), 4},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestFreqEntropyUniform(t *testing.T) {
	f := NewFreq()
	for i := uint64(0); i < 8; i++ {
		f.Apply(Update{Item: i, Delta: 5})
	}
	if got, want := f.Entropy(), 3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Entropy of uniform-8 = %v, want %v", got, want)
	}
}

func TestFreqEntropyDegenerate(t *testing.T) {
	f := NewFreq()
	if got := f.Entropy(); got != 0 {
		t.Errorf("Entropy of empty stream = %v, want 0", got)
	}
	f.Apply(Update{Item: 42, Delta: 100})
	if got := f.Entropy(); got != 0 {
		t.Errorf("Entropy of single-item stream = %v, want 0", got)
	}
}

func TestFreqHeavyHitters(t *testing.T) {
	f := NewFreq()
	f.Apply(Update{Item: 1, Delta: 100})
	f.Apply(Update{Item: 2, Delta: 10})
	f.Apply(Update{Item: 3, Delta: 30})
	hh := f.HeavyHitters(30)
	if len(hh) != 2 || hh[0] != 1 || hh[1] != 3 {
		t.Errorf("HeavyHitters(30) = %v, want [1 3]", hh)
	}
	// L2 = sqrt(11000) ≈ 104.9; threshold 0.5·L2 ≈ 52.4 keeps only item 1.
	if got := f.L2HeavyHitters(0.5); len(got) != 1 || got[0] != 1 {
		t.Errorf("L2HeavyHitters(0.5) = %v, want [1]", got)
	}
}

func TestTrajectoryMatchesFinalState(t *testing.T) {
	s := Collect(NewUniform(64, 500, 1), 0)
	traj := Trajectory(s, (*Freq).F0)
	f := NewFreq()
	f.ApplyAll(s)
	if traj[len(traj)-1] != f.F0() {
		t.Errorf("final trajectory value %v != exact F0 %v", traj[len(traj)-1], f.F0())
	}
	for i := 1; i < len(traj); i++ {
		if traj[i] < traj[i-1] {
			t.Fatalf("F0 trajectory decreased at %d on insertion-only stream", i)
		}
	}
}

// Property: F1 of an insertion-only stream equals the number of unit
// insertions, and F0 <= F1.
func TestFreqPropertyF1CountsInsertions(t *testing.T) {
	prop := func(items []uint16) bool {
		f := NewFreq()
		for _, it := range items {
			f.Apply(Update{Item: uint64(it), Delta: 1})
		}
		return f.F1() == float64(len(items)) && f.F0() <= f.F1()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: applying a stream and then its exact negation returns every
// statistic to zero.
func TestFreqPropertyCancellation(t *testing.T) {
	prop := func(items []uint8, deltas []int8) bool {
		f := NewFreq()
		n := len(items)
		if len(deltas) < n {
			n = len(deltas)
		}
		for i := 0; i < n; i++ {
			f.Apply(Update{Item: uint64(items[i]), Delta: int64(deltas[i])})
		}
		for i := 0; i < n; i++ {
			f.Apply(Update{Item: uint64(items[i]), Delta: -int64(deltas[i])})
		}
		return f.F0() == 0 && f.F1() == 0 && f.Entropy() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
