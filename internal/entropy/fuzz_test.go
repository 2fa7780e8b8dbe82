package entropy

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzCCUnmarshal: arbitrary bytes must never panic or produce a sketch
// that panics on use or answers a non-finite estimate (no counter a
// stream could not have produced gets in); valid encodings must round-trip.
func FuzzCCUnmarshal(f *testing.F) {
	seed := NewCC(CCSizing{Groups: 3, Per: 8}, rand.New(rand.NewSource(1)))
	for i := uint64(0); i < 100; i++ {
		seed.Update(i, 1)
	}
	data, _ := seed.MarshalBinary()
	f.Add(data)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		var s CC
		if err := s.UnmarshalBinary(b); err != nil {
			return
		}
		s.Update(42, 1)
		if e := s.Estimate(); math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("decoded sketch estimates %v", e)
		}
		_ = s.SpaceBytes()
	})
}
