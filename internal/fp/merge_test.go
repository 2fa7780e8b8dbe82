package fp

import (
	"math"
	"math/rand"
	"testing"
)

func TestF2MergeEqualsConcatenation(t *testing.T) {
	origin := NewF2(F2Sizing{Rows: 5, Width: 128}, rand.New(rand.NewSource(1)))
	s1, s2, whole := origin.Fresh(), origin.Fresh(), origin.Fresh()
	for i := uint64(0); i < 10000; i++ {
		item, delta := i%512, int64(i%5)+1
		if i%2 == 0 {
			s1.Update(item, delta)
		} else {
			s2.Update(item, delta)
		}
		whole.Update(item, delta)
	}
	if err := s1.Merge(s2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.Estimate()-whole.Estimate()) > 1e-6 {
		t.Errorf("merged F2 %v != whole %v", s1.Estimate(), whole.Estimate())
	}
}

func TestF2MergeRejectsForeignSketch(t *testing.T) {
	a := NewF2(F2Sizing{Rows: 3, Width: 32}, rand.New(rand.NewSource(1)))
	b := NewF2(F2Sizing{Rows: 3, Width: 32}, rand.New(rand.NewSource(2)))
	if err := a.Merge(b); err == nil {
		t.Error("merging F2 sketches with different hashes must fail")
	}
	c := NewF2(F2Sizing{Rows: 3, Width: 64}, rand.New(rand.NewSource(1)))
	if err := a.Merge(c); err == nil {
		t.Error("merging F2 sketches with different widths must fail")
	}
}

func TestFreshSketchesAreIndependentStates(t *testing.T) {
	origin := NewF2(F2Sizing{Rows: 3, Width: 32}, rand.New(rand.NewSource(5)))
	a, b := origin.Fresh(), origin.Fresh()
	a.Update(7, 100)
	if b.Estimate() != 0 {
		t.Error("updating one Fresh copy leaked into another")
	}
}
