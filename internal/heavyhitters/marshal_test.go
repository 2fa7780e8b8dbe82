package heavyhitters

import (
	"math/rand"
	"testing"
)

func TestCountSketchMarshalRoundTrip(t *testing.T) {
	orig := NewCountSketch(Sizing{Rows: 5, Width: 64}, rand.New(rand.NewSource(1)))
	for i := uint64(0); i < 10000; i++ {
		orig.Update(i%200, 1)
	}
	orig.Update(7777, 500) // a heavy candidate that must survive the trip
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded CountSketch
	if err := decoded.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, item := range []uint64{0, 13, 199, 7777} {
		if decoded.Query(item) != orig.Query(item) {
			t.Errorf("decoded Query(%d) = %v, original %v", item, decoded.Query(item), orig.Query(item))
		}
	}
	if decoded.Estimate() != orig.Estimate() {
		t.Errorf("decoded F2 %v != original %v", decoded.Estimate(), orig.Estimate())
	}
	// The candidate pool survives: the heavy item is recoverable.
	hh := decoded.HeavyHitters(400)
	found := false
	for _, it := range hh {
		if it == 7777 {
			found = true
		}
	}
	if !found {
		t.Error("heavy candidate lost in serialization")
	}
	if err := decoded.Merge(orig.Fresh()); err != nil {
		t.Errorf("decoded sketch rejected a shard of its origin: %v", err)
	}
}

func TestCountSketchUnmarshalRejectsCorruption(t *testing.T) {
	orig := NewCountSketch(Sizing{Rows: 3, Width: 16}, rand.New(rand.NewSource(2)))
	data, _ := orig.MarshalBinary()
	var s CountSketch
	if err := s.UnmarshalBinary(data[:10]); err == nil {
		t.Error("truncated input accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 9
	if err := s.UnmarshalBinary(bad); err == nil {
		t.Error("unknown version accepted")
	}
}
