package heavyhitters

import (
	"math/rand"
	"testing"
)

func TestCountSketchMergeEqualsConcatenation(t *testing.T) {
	origin := NewCountSketch(Sizing{Rows: 5, Width: 128}, rand.New(rand.NewSource(1)))
	s1, s2, whole := origin.Fresh(), origin.Fresh(), origin.Fresh()
	for i := uint64(0); i < 20000; i++ {
		item := i % 300
		if i%2 == 0 {
			s1.Update(item, 1)
		} else {
			s2.Update(item, 1)
		}
		whole.Update(item, 1)
	}
	if err := s1.Merge(s2); err != nil {
		t.Fatal(err)
	}
	for item := uint64(0); item < 300; item += 17 {
		if s1.Query(item) != whole.Query(item) {
			t.Errorf("merged Query(%d) = %v, whole = %v", item, s1.Query(item), whole.Query(item))
		}
	}
	if s1.Estimate() != whole.Estimate() {
		t.Errorf("merged F2 %v != whole %v", s1.Estimate(), whole.Estimate())
	}
}

func TestCountSketchMergeRejectsForeign(t *testing.T) {
	a := NewCountSketch(Sizing{Rows: 3, Width: 32}, rand.New(rand.NewSource(1)))
	b := NewCountSketch(Sizing{Rows: 3, Width: 32}, rand.New(rand.NewSource(2)))
	if err := a.Merge(b); err == nil {
		t.Error("merging CountSketches with different hashes must fail")
	}
}
