package fp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sketch"
)

// FuzzF2Unmarshal: arbitrary bytes must never panic or produce a sketch
// that panics on use; valid encodings must round-trip (the contract every
// wire format reachable from a network merge endpoint has to honor).
func FuzzF2Unmarshal(f *testing.F) {
	seed := NewF2(F2Sizing{Rows: 3, Width: 16}, rand.New(rand.NewSource(1)))
	for i := uint64(0); i < 100; i++ {
		seed.Update(i, 1)
	}
	data, _ := seed.MarshalBinary()
	f.Add(data)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add(hostileDims)
	batch := make([]sketch.Update, 300)
	for i := range batch {
		batch[i] = sketch.Update{Item: uint64(i % 97), Delta: int64(i%5) - 2}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var s F2Sketch
		if err := s.UnmarshalBinary(b); err != nil {
			return
		}
		// A successfully decoded sketch must be usable, and must answer a
		// number: no counter a stream could not have produced gets in.
		// The batch kernel packs (bucket, sign) per decoded width and takes
		// rows of any decoded degree; it must land where Update does.
		var single F2Sketch
		if err := single.UnmarshalBinary(b); err != nil {
			t.Fatalf("second decode of accepted bytes: %v", err)
		}
		s.UpdateBatch(batch)
		for _, u := range batch {
			single.Update(u.Item, u.Delta)
		}
		if s.Estimate() != single.Estimate() {
			t.Fatalf("batch-fed estimate %v, update-fed %v", s.Estimate(), single.Estimate())
		}
		s.Update(42, 1)
		if e := s.Estimate(); math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("decoded sketch estimates %v", e)
		}
		_ = s.SpaceBytes()
	})
}
