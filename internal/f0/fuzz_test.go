package f0

import (
	"math/rand"
	"testing"
)

// FuzzKMVUnmarshal: arbitrary bytes must never panic or produce a sketch
// that panics on use — fed one value at a time, by the batch, or both, so
// with and without its index; valid encodings must round-trip.
func FuzzKMVUnmarshal(f *testing.F) {
	seed := NewKMV(16, rand.New(rand.NewSource(1)))
	for i := uint64(0); i < 100; i++ {
		seed.Update(i, 1)
	}
	data, _ := seed.MarshalBinary()
	f.Add(data)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add(kmvRepeatedBlob)
	f.Add(kmvOutOfFieldBlob)
	f.Add(kmvBlob(1<<62, 5, 3)) // a k no machine holds: nothing may be sized by it
	batch := goldenKMVStream()[:300]
	f.Fuzz(func(t *testing.T, b []byte) {
		var s, viaUpdate KMV
		if err := s.UnmarshalBinary(b); err != nil {
			return
		}
		// A successfully decoded sketch must be usable, and the two ways of
		// feeding it must agree.
		if err := viaUpdate.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		s.UpdateBatch(batch)
		for _, u := range batch {
			viaUpdate.Update(u.Item, u.Delta)
		}
		if s.Estimate() != viaUpdate.Estimate() {
			t.Fatalf("batch-fed estimate %v, update-fed %v", s.Estimate(), viaUpdate.Estimate())
		}
		s.Update(42, 1)
		s.UpdateBatch(batch[:7])
		_ = s.Estimate()
		_ = s.SpaceBytes()
		if _, err := s.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	})
}
