package f0

import (
	"math/rand"
	"testing"
)

func TestKMVMarshalRoundTrip(t *testing.T) {
	orig := NewKMV(64, rand.New(rand.NewSource(1)))
	for i := uint64(0); i < 5000; i++ {
		orig.Update(i*2654435761, 1)
	}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded KMV
	if err := decoded.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if decoded.Estimate() != orig.Estimate() {
		t.Errorf("decoded estimate %v != original %v", decoded.Estimate(), orig.Estimate())
	}
	// The decoded sketch must continue the stream identically.
	for i := uint64(5000); i < 6000; i++ {
		orig.Update(i*2654435761, 1)
		decoded.Update(i*2654435761, 1)
	}
	if decoded.Estimate() != orig.Estimate() {
		t.Errorf("post-continuation estimates diverged: %v vs %v", decoded.Estimate(), orig.Estimate())
	}
	// And it must merge with shards of the original.
	shard := orig.Fresh()
	shard.Update(999999999, 1)
	if err := decoded.Merge(shard); err != nil {
		t.Errorf("decoded sketch rejected a shard of its origin: %v", err)
	}
}

func TestKMVUnmarshalRejectsCorruption(t *testing.T) {
	orig := NewKMV(16, rand.New(rand.NewSource(2)))
	for i := uint64(0); i < 100; i++ {
		orig.Update(i, 1)
	}
	data, _ := orig.MarshalBinary()
	var s KMV
	if err := s.UnmarshalBinary(data[:len(data)-3]); err == nil {
		t.Error("truncated input accepted")
	}
	if err := s.UnmarshalBinary(append(data, 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 99 // unknown version
	if err := s.UnmarshalBinary(bad); err == nil {
		t.Error("unknown version accepted")
	}
	if err := s.UnmarshalBinary(nil); err == nil {
		t.Error("empty input accepted")
	}
}
