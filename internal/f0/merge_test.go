package f0

import (
	"math/rand"
	"testing"
)

func TestKMVMergeEqualsConcatenation(t *testing.T) {
	origin := NewKMV(128, rand.New(rand.NewSource(4)))
	shard1, shard2 := origin.Fresh(), origin.Fresh()
	whole := origin.Fresh()
	for i := uint64(0); i < 20000; i++ {
		item := i * 11400714819323198485
		if i%2 == 0 {
			shard1.Update(item, 1)
		} else {
			shard2.Update(item, 1)
		}
		whole.Update(item, 1)
	}
	if err := shard1.Merge(shard2); err != nil {
		t.Fatal(err)
	}
	if shard1.Estimate() != whole.Estimate() {
		t.Errorf("merged estimate %v != whole-stream estimate %v", shard1.Estimate(), whole.Estimate())
	}
}

func TestKMVMergeRejectsForeignSketch(t *testing.T) {
	a := NewKMV(16, rand.New(rand.NewSource(1)))
	b := NewKMV(16, rand.New(rand.NewSource(2)))
	if err := a.Merge(b); err == nil {
		t.Error("merging KMVs with different hash functions must fail")
	}
}

func BenchmarkKMVMerge(b *testing.B) {
	origin := NewKMV(512, rand.New(rand.NewSource(1)))
	shard := origin.Fresh()
	for i := uint64(0); i < 10000; i++ {
		shard.Update(i, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := origin.Fresh()
		if err := acc.Merge(shard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMVMarshal(b *testing.B) {
	s := NewKMV(512, rand.New(rand.NewSource(1)))
	for i := uint64(0); i < 10000; i++ {
		s.Update(i, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestKMVMergeOverlappingShards(t *testing.T) {
	// Items seen by both shards must not be double counted (the union of
	// minima dedupes by hash value).
	origin := NewKMV(64, rand.New(rand.NewSource(9)))
	s1, s2, whole := origin.Fresh(), origin.Fresh(), origin.Fresh()
	for i := uint64(0); i < 5000; i++ {
		s1.Update(i, 1)
		whole.Update(i, 1)
	}
	for i := uint64(2500); i < 7500; i++ {
		s2.Update(i, 1)
		whole.Update(i, 1)
	}
	if err := s1.Merge(s2); err != nil {
		t.Fatal(err)
	}
	if s1.Estimate() != whole.Estimate() {
		t.Errorf("overlapping merge %v != whole %v", s1.Estimate(), whole.Estimate())
	}
}
