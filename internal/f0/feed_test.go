package f0

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/hash"
)

// TestKMVFeedPathIndependence: the same stream through Update, through
// UpdateBatch and through a mix gives equal estimates wherever all three
// can be read and byte-equal encodings, whether or not the sketch ever
// builds its index. The first batch (5 000 golden updates into k = 1 200)
// overflows the candidate scratch several times before the sketch is full,
// and the mixed sketch gains its index mid-stream, full and sorted.
func TestKMVFeedPathIndependence(t *testing.T) {
	updates := goldenKMVStream()
	origin := NewKMV(1200, rand.New(rand.NewSource(9)))
	single, batched, mixed := origin.Fresh(), origin.Fresh(), origin.Fresh()
	for i, lo := 0, 0; lo < len(updates); i++ {
		hi := min(lo+[]int{5000, 1, 700, 16, 3000}[i%5], len(updates))
		for _, u := range updates[lo:hi] {
			single.Update(u.Item, u.Delta)
		}
		batched.UpdateBatch(updates[lo:hi])
		if i < 4 || i%2 == 0 {
			mixed.UpdateBatch(updates[lo:hi])
		} else {
			for _, u := range updates[lo:hi] {
				mixed.Update(u.Item, u.Delta)
			}
		}
		lo = hi
		if i == 3 && (mixed.in != nil || len(mixed.vals) != mixed.k) {
			t.Fatalf("the mixed sketch should be full (%d of %d) and still unindexed before its first Update", len(mixed.vals), mixed.k)
		}
		want, _ := single.MarshalBinary()
		for name, s := range map[string]*KMV{"batched": batched, "mixed": mixed} {
			if s.Estimate() != single.Estimate() {
				t.Fatalf("after %d updates: %s estimate %v, per-update %v", hi, name, s.Estimate(), single.Estimate())
			}
			if got, _ := s.MarshalBinary(); !bytes.Equal(got, want) {
				t.Fatalf("after %d updates: %s sketch encodes differently from the per-update one", hi, name)
			}
		}
	}
	if single.in == nil || mixed.in == nil || batched.in != nil {
		t.Errorf("indexed: per-update %v, mixed %v, batched %v; want true, true, false", single.in != nil, mixed.in != nil, batched.in != nil)
	}
	if !slices.IsSortedFunc(batched.vals, func(a, b uint64) int { return cmp.Compare(b, a) }) {
		t.Error("an unindexed sketch's minima are not sorted descending")
	}
	if len(mixed.in) != len(mixed.vals) {
		t.Errorf("index holds %d values, heap %d", len(mixed.in), len(mixed.vals))
	}
}

// TestKMVMergeBuildsNoIndex: folding shards into an unindexed sketch — what
// a merge endpoint, a shipment and a global query do — leaves it
// unindexed, whatever mode the shards are in, and equal to the sketch of
// the concatenated stream; k may differ and the receiver's wins.
func TestKMVMergeBuildsNoIndex(t *testing.T) {
	updates := goldenKMVStream()[:6000]
	origin := NewKMV(256, rand.New(rand.NewSource(3)))
	whole, acc, indexedShard, batchShard := origin.Fresh(), origin.Fresh(), origin.Fresh(), origin.Fresh()
	wide := &KMV{k: 1024, h: origin.h}
	whole.UpdateBatch(updates)
	for _, u := range updates[:2000] {
		indexedShard.Update(u.Item, u.Delta)
	}
	batchShard.UpdateBatch(updates[2000:4500])
	wide.UpdateBatch(updates[4000:])
	for _, shard := range []*KMV{indexedShard, batchShard, wide, origin.Fresh(), batchShard} {
		if err := acc.Merge(shard); err != nil {
			t.Fatal(err)
		}
	}
	if acc.in != nil {
		t.Error("merging into an unindexed sketch built an index")
	}
	if !slices.Equal(acc.vals, whole.vals) {
		t.Errorf("merged minima differ from the whole stream's (%d vs %d values)", len(acc.vals), len(whole.vals))
	}
	// The other direction: an indexed receiver keeps its heap and index in step.
	if err := indexedShard.Merge(acc); err != nil {
		t.Fatal(err)
	}
	if indexedShard.Estimate() != whole.Estimate() || len(indexedShard.in) != len(indexedShard.vals) {
		t.Errorf("indexed receiver: estimate %v (want %v), index %d, heap %d",
			indexedShard.Estimate(), whole.Estimate(), len(indexedShard.in), len(indexedShard.vals))
	}
}

// TestKMVMergeValuesAgainstReference drives the in-place merge through
// small random cases — empty, filling, overflowing and full sketches,
// candidates that repeat each other and the retained values — against the
// definition: the k smallest distinct values of the union, descending.
func TestKMVMergeValuesAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 3000; trial++ {
		s := &KMV{k: 2 + rng.Intn(12)}
		seen := map[uint64]struct{}{}
		for round := 0; round < 4; round++ {
			c := make([]uint64, rng.Intn(2*s.k))
			for i := range c {
				c[i] = uint64(rng.Intn(40))
				seen[c[i]] = struct{}{}
			}
			s.mergeValues(c)
			var want []uint64
			for v := range seen {
				want = append(want, v)
			}
			slices.Sort(want)
			want = want[:min(len(want), s.k)]
			slices.Reverse(want)
			if !slices.Equal(s.vals, want) {
				t.Fatalf("trial %d round %d (k = %d): minima %v, want %v", trial, round, s.k, s.vals, want)
			}
		}
	}
}

// kmvBlob hand-encodes a V1 KMV blob.
func kmvBlob(k uint64, vals ...uint64) []byte {
	var w codec.Writer
	w.U8(kmvFormatV1)
	w.U64(k)
	w.U64s([]uint64{7, 11})
	w.U64s(vals)
	return w.Bytes()
}

// Blobs no stream produces: a "full" sketch holding one distinct value
// (decoded, its heap and index disagreed from the first eviction on), and
// minima outside the hash range.
var (
	kmvRepeatedBlob   = kmvBlob(4, 50, 50, 50, 50)
	kmvOutOfFieldBlob = kmvBlob(4, 9, hash.Prime, 3)
)

func TestKMVUnmarshalRejectsImpossibleMinima(t *testing.T) {
	for name, blob := range map[string][]byte{
		"repeated":           kmvRepeatedBlob,
		"repeated, unsorted": kmvBlob(4, 50, 3, 50),
		"out of field":       kmvOutOfFieldBlob,
		"max uint64":         kmvBlob(4, ^uint64(0)),
	} {
		var s KMV
		if err := s.UnmarshalBinary(blob); err == nil {
			t.Errorf("%s minima decoded (estimate %v)", name, s.Estimate())
		}
	}
	// Any order of possible minima is fine: V1 was first written in heap order.
	var s KMV
	if err := s.UnmarshalBinary(kmvBlob(4, 3, hash.Prime-1, 9, 0)); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{hash.Prime - 1, 9, 3, 0}; !slices.Equal(s.vals, want) || s.in != nil {
		t.Errorf("decoded minima %v (indexed %v), want %v unindexed", s.vals, s.in != nil, want)
	}
}
