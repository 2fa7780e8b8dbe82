package f0

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/hash"
	"repro/internal/sketch"
)

// checkKMVInvariant fails unless s holds at most k minima, strictly
// descending — the one invariant every insert, merge and decode keeps.
func checkKMVInvariant(t *testing.T, what string, s *KMV) {
	t.Helper()
	if len(s.vals) > s.k {
		t.Fatalf("%s: holds %d values, k = %d", what, len(s.vals), s.k)
	}
	for i := 1; i < len(s.vals); i++ {
		if s.vals[i] >= s.vals[i-1] {
			t.Fatalf("%s: minima are not strictly descending at %d", what, i)
		}
	}
}

// TestKMVFeedPathIndependence: the same stream through Update, through
// UpdateBatch and through a mix gives equal estimates and byte-equal
// encodings at every cut, and every sketch keeps the invariant after every
// step. The first batch (5 000 golden updates into k = 1 200) overflows
// the candidate scratch several times before the sketch is full, and the
// mixed sketch meets its first Update full.
func TestKMVFeedPathIndependence(t *testing.T) {
	updates := goldenKMVStream()
	origin := NewKMV(1200, rand.New(rand.NewSource(9)))
	single, batched, mixed := origin.Fresh(), origin.Fresh(), origin.Fresh()
	for i, lo := 0, 0; lo < len(updates); i++ {
		hi := min(lo+[]int{5000, 1, 700, 16, 3000}[i%5], len(updates))
		for _, u := range updates[lo:hi] {
			single.Update(u.Item, u.Delta)
			checkKMVInvariant(t, "per-update", single)
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
		if i == 3 && len(mixed.vals) != mixed.k {
			t.Fatalf("the mixed sketch should be full (%d of %d) before its first Update", len(mixed.vals), mixed.k)
		}
		want, _ := single.MarshalBinary()
		for name, s := range map[string]*KMV{"batched": batched, "mixed": mixed} {
			checkKMVInvariant(t, name, s)
			if s.Estimate() != single.Estimate() {
				t.Fatalf("after %d updates: %s estimate %v, per-update %v", hi, name, s.Estimate(), single.Estimate())
			}
			if got, _ := s.MarshalBinary(); !bytes.Equal(got, want) {
				t.Fatalf("after %d updates: %s sketch encodes differently from the per-update one", hi, name)
			}
		}
	}
}

// TestKMVBatchShapesMatchUpdates holds every batch kernel to per-update
// feeding: batches on both sides of placeMax and cutMax and a whole lag
// buffer, growing from one update and, several times over, from a first
// batch that fills the candidate scratch exactly (where the cut must keep
// exactly what the k smallest need), at k = 2, 1 113 and 5 000, on distinct items, on items at or
// above the field size that alias smaller ones (equal values, distinct
// items), on repeats, and on a cluster an adversary who knows the hash
// aims into one bucket under every threshold. After every batch the
// batch-fed minima must equal the update-fed ones and keep the invariant.
func TestKMVBatchShapesMatchUpdates(t *testing.T) {
	orders := [][]int{
		{1, 511, 512, 513, 4096, 4097, 16384},
		{4096, 16384, 4097, 513, 1, 512, 511},
		{4096, 4097}, {4096, 512}, {4096, 1}, {4096, 16384},
	}
	for _, k := range []int{2, 1113, 5000} {
		origin := NewKMV(k, rand.New(rand.NewSource(int64(k))))
		c := origin.h.Coeffs() // h(x) = c[0] + c[1]·x over the field
		preimage := func(v uint64) uint64 { return hash.Mul(hash.Sub(v, c[0]), hash.Inv(c[1])) }
		for _, st := range []struct {
			name string
			item func(rng *rand.Rand) uint64
		}{
			{"distinct", func(rng *rand.Rand) uint64 { return rng.Uint64() }},
			{"aliasing mod p", func(rng *rand.Rand) uint64 {
				x := rng.Uint64() % (1 << 14)
				if rng.Intn(2) == 0 {
					return x + hash.Prime // ≥ 2⁶¹−1, hashed as x
				}
				return x
			}},
			{"repeats", func(rng *rand.Rand) uint64 { return uint64(rng.Intn(3000)) }},
			{"one-bucket cluster", func(rng *rand.Rand) uint64 {
				if rng.Intn(4) == 0 {
					return rng.Uint64()
				}
				return preimage(rng.Uint64() >> 44) // a value under 2²⁰
			}},
		} {
			for o, sizes := range orders {
				rng := rand.New(rand.NewSource(int64(7 + o)))
				single, batched := origin.Fresh(), origin.Fresh()
				fed := 0
				for _, n := range sizes {
					batch := make([]sketch.Update, n)
					for i := range batch {
						batch[i] = sketch.Update{Item: st.item(rng), Delta: 1}
						single.Update(batch[i].Item, 1)
					}
					batched.UpdateBatch(batch)
					fed += n
					what := fmt.Sprintf("k = %d, %s, sizes %v, after a batch of %d (%d fed)", k, st.name, sizes, n, fed)
					checkKMVInvariant(t, what, batched)
					if !slices.Equal(batched.vals, single.vals) {
						t.Fatalf("%s: batch-fed minima (%d) differ from update-fed ones (%d)", what, len(batched.vals), len(single.vals))
					}
				}
			}
		}
	}
}

// TestKMVMergeAcrossFeedsAndWidths: folding shards into a sketch — what a
// merge endpoint, a shipment and a global query do — gives the sketch of
// the concatenated stream however each shard was fed; k may differ and the
// receiver's wins.
func TestKMVMergeAcrossFeedsAndWidths(t *testing.T) {
	updates := goldenKMVStream()[:6000]
	origin := NewKMV(256, rand.New(rand.NewSource(3)))
	whole, acc, updateShard, batchShard := origin.Fresh(), origin.Fresh(), origin.Fresh(), origin.Fresh()
	wide := &KMV{k: 1024, h: origin.h}
	whole.UpdateBatch(updates)
	for _, u := range updates[:2000] {
		updateShard.Update(u.Item, u.Delta)
	}
	batchShard.UpdateBatch(updates[2000:4500])
	wide.UpdateBatch(updates[4000:])
	for _, shard := range []*KMV{updateShard, batchShard, wide, origin.Fresh(), batchShard} {
		if err := acc.Merge(shard); err != nil {
			t.Fatal(err)
		}
		checkKMVInvariant(t, "accumulator", acc)
	}
	if !slices.Equal(acc.vals, whole.vals) {
		t.Errorf("merged minima differ from the whole stream's (%d vs %d values)", len(acc.vals), len(whole.vals))
	}
	// The other direction: a receiver fed by Update takes a merge the same way.
	if err := updateShard.Merge(acc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(updateShard.vals, whole.vals) {
		t.Errorf("update-fed receiver: estimate %v, want %v", updateShard.Estimate(), whole.Estimate())
	}
}

// TestKMVMergeValuesAgainstReference drives the in-place merge through
// small random cases — empty, filling, overflowing and full sketches,
// ascending candidates that repeat each other and the retained values —
// against the definition: the k smallest distinct values of the union,
// descending.
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
			slices.Sort(c) // mergeValues takes its values ascending
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

// TestKMVPlaceMatchesSort: placement orders as slices.Sort does at every
// length up to the candidate scratch and one past it, on values of every
// width a hash value has, uniform and under a random maximum as a KMV's
// candidates are, and on what an adversary who knows the hash can feed it:
// repeats, all-equal and descending input, sixteen values a bucket
// descending within each (the most insertion work placement keeps), and
// every value in one bucket (which it must hand to the comparison sort).
func TestKMVPlaceMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	check := func(n, w int, what string, c []uint64) {
		t.Helper()
		want := slices.Sorted(slices.Values(c))
		if place(c); !slices.Equal(c, want) {
			t.Fatalf("%d values, width %d, %s: placed %v, want %v", n, w, what, c, want)
		}
	}
	for n := 0; n <= placeMax+1; n++ {
		for w := 1 + n%7; w <= 61; w += 7 {
			uniform, under, repeats := make([]uint64, n), make([]uint64, n), make([]uint64, n)
			limit := 1 + rng.Uint64()>>(64-w)
			for i := range uniform {
				uniform[i] = rng.Uint64() >> (64 - w)
				under[i] = rng.Uint64() % limit
				repeats[i] = uniform[rng.Intn(i+1)]
			}
			check(n, w, "uniform", uniform)
			check(n, w, "under a maximum", under)
			check(n, w, "repeats", repeats)
			if n > 0 {
				check(n, w, "all equal", slices.Repeat(uniform[n-1:], n))
			}
			slices.Reverse(uniform) // its check left it ascending
			check(n, w, "descending", uniform)
		}
		sixteen, one := make([]uint64, n), make([]uint64, n)
		for i := range sixteen {
			sixteen[i] = uint64(i/16)<<52 | uint64(15-i%16)
			one[i] = 1<<60 | rng.Uint64()>>20 // the top 9 of 61 bits: bucket 256
		}
		check(n, 61, "sixteen a bucket", sixteen)
		check(n, 61, "one bucket", one)
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

// Blobs no stream produces: a "full" sketch holding one distinct value,
// and minima outside the hash range.
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
	if want := []uint64{hash.Prime - 1, 9, 3, 0}; !slices.Equal(s.vals, want) {
		t.Errorf("decoded minima %v, want %v", s.vals, want)
	}
}
