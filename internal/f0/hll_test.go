package f0

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

func TestHLLAccuracy(t *testing.T) {
	for _, truth := range []uint64{100, 5000, 200000} {
		failures := 0
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			s := NewHLL(12, rand.New(rand.NewSource(int64(trial))))
			for i := uint64(0); i < truth; i++ {
				s.Update(i*2654435761+uint64(trial), 1)
			}
			if relErr(s.Estimate(), float64(truth)) > 0.1 {
				failures++
			}
		}
		if failures > 2 {
			t.Errorf("truth=%d: %d/%d HLL trials exceeded 10%% at precision 12", truth, failures, trials)
		}
	}
}

func TestHLLSmallRangeExact(t *testing.T) {
	// Linear counting keeps tiny cardinalities near-exact.
	s := NewHLL(10, rand.New(rand.NewSource(1)))
	for i := uint64(0); i < 30; i++ {
		s.Update(i, 1)
		s.Update(i, 1)
	}
	if e := relErr(s.Estimate(), 30); e > 0.15 {
		t.Errorf("small-range estimate %v vs 30 (err %v)", s.Estimate(), e)
	}
}

func TestHLLDuplicateInsensitiveProperty(t *testing.T) {
	prop := func(items []uint16) bool {
		a := NewHLL(8, rand.New(rand.NewSource(5)))
		b := NewHLL(8, rand.New(rand.NewSource(5)))
		seen := map[uint16]bool{}
		for _, it := range items {
			a.Update(uint64(it), 1)
			a.Update(uint64(it), 1)
			if !seen[it] {
				seen[it] = true
				b.Update(uint64(it), 1)
			}
		}
		return a.Estimate() == b.Estimate()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if !NewHLL(8, rand.New(rand.NewSource(1))).DuplicateInsensitive() {
		t.Error("HLL must declare duplicate-insensitivity")
	}
}

func TestHLLMergeEqualsConcatenation(t *testing.T) {
	origin := NewHLL(10, rand.New(rand.NewSource(3)))
	shard1, shard2 := origin.Fresh(), origin.Fresh()
	whole := origin.Fresh()
	g := stream.NewUniform(1<<14, 20000, 7)
	i := 0
	for {
		u, ok := g.Next()
		if !ok {
			break
		}
		if i%2 == 0 {
			shard1.Update(u.Item, u.Delta)
		} else {
			shard2.Update(u.Item, u.Delta)
		}
		whole.Update(u.Item, u.Delta)
		i++
	}
	if err := shard1.Merge(shard2); err != nil {
		t.Fatal(err)
	}
	if shard1.Estimate() != whole.Estimate() {
		t.Errorf("merged estimate %v != whole-stream estimate %v", shard1.Estimate(), whole.Estimate())
	}
}

func TestHLLMergeRejectsForeignSketch(t *testing.T) {
	a := NewHLL(10, rand.New(rand.NewSource(1)))
	b := NewHLL(10, rand.New(rand.NewSource(2)))
	if err := a.Merge(b); err == nil {
		t.Error("merging sketches with different hash functions must fail")
	}
	c := NewHLL(11, rand.New(rand.NewSource(1)))
	if err := a.Merge(c); err == nil {
		t.Error("merging sketches with different precision must fail")
	}
}

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

func BenchmarkHLLUpdate(b *testing.B) {
	s := NewHLL(12, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(uint64(i), 1)
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
