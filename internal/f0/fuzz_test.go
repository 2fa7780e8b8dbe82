package f0

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzKMVUnmarshal: arbitrary bytes must never panic or produce a sketch
// that panics on use or leaves the invariant — fed one value at a time, by
// the batch, or both; valid encodings must round-trip.
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
		for item := uint64(40); item < 44; item++ {
			s.Update(item, 1)
			checkKMVInvariant(t, "after Update", &s)
		}
		s.UpdateBatch(batch[:7])
		checkKMVInvariant(t, "after UpdateBatch", &s)
		_ = s.Estimate()
		_ = s.SpaceBytes()
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var again KMV
		if err := again.UnmarshalBinary(enc); err != nil {
			t.Fatal(err)
		}
		if reenc, _ := again.MarshalBinary(); !bytes.Equal(reenc, enc) {
			t.Fatal("a decoded sketch re-encodes differently")
		}
	})
}
