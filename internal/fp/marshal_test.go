package fp

import (
	"math/rand"
	"testing"
)

func TestF2MarshalRoundTrip(t *testing.T) {
	orig := NewF2(F2Sizing{Rows: 5, Width: 64}, rand.New(rand.NewSource(1)))
	for i := uint64(0); i < 5000; i++ {
		orig.Update(i%300, int64(i%7)-3)
	}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded F2Sketch
	if err := decoded.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if decoded.Estimate() != orig.Estimate() {
		t.Errorf("decoded estimate %v != original %v", decoded.Estimate(), orig.Estimate())
	}
	// Continuation and merging must behave identically.
	orig.Update(7, 10)
	decoded.Update(7, 10)
	if decoded.Estimate() != orig.Estimate() {
		t.Error("post-continuation estimates diverged")
	}
	if err := decoded.Merge(orig.Fresh()); err != nil {
		t.Errorf("decoded sketch rejected a shard of its origin: %v", err)
	}
}

func TestF2UnmarshalRejectsCorruption(t *testing.T) {
	orig := NewF2(F2Sizing{Rows: 3, Width: 16}, rand.New(rand.NewSource(2)))
	data, _ := orig.MarshalBinary()
	var s F2Sketch
	if err := s.UnmarshalBinary(data[:len(data)/2]); err == nil {
		t.Error("truncated input accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 42
	if err := s.UnmarshalBinary(bad); err == nil {
		t.Error("unknown version accepted")
	}
}
