package heavyhitters

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sketch"
)

// TestSelectTopMatchesSort: the quickselect prune must retain exactly
// the set a full sort would — including heavy magnitude ties, where the
// ascending-item rule decides — across sizes that hit every selection
// branch (k at the edges, duplicates, tiny slices).
func TestSelectTopMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		k := 1 + rng.Intn(n)
		entries := make([]candEntry, n)
		for i := range entries {
			// Small weight range forces magnitude ties; items unique.
			entries[i] = candEntry{item: uint64(i), weight: int64(rng.Intn(9) - 4)}
		}
		rng.Shuffle(n, func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })

		want := append([]candEntry(nil), entries...)
		sort.Slice(want, func(i, j int) bool { return entryLess(want[i], want[j]) })
		wantSet := make(map[uint64]bool, k)
		for _, e := range want[:k] {
			wantSet[e.item] = true
		}

		got := append([]candEntry(nil), entries...)
		selectTop(got, k)
		for i, e := range got[:k] {
			if !wantSet[e.item] {
				t.Fatalf("trial %d (n=%d, k=%d): selectTop kept item %d (pos %d), not in the sort-order top %d",
					trial, n, k, e.item, i, k)
			}
			delete(wantSet, e.item)
		}
		if len(wantSet) != 0 {
			t.Fatalf("trial %d (n=%d, k=%d): selectTop dropped %d top items", trial, n, k, len(wantSet))
		}
	}
}

// TestUpdateCoalescedAtThePruneBoundary: UpdateCoalesced walks net in place
// of raw only while the pool and net's distinct items fit under the prune
// trigger, 2·candCap. Pools filled so that pool + batch lands one below, at
// and one above it must each encode byte-equal to UpdateBatch(raw). The
// batch's items are fresh, each seen once at unit weight and again later at
// a weight that grows with its position, plus one that sums to zero: above
// the trigger a raw walk prunes on the unit tallies and a net walk on the
// final ones, so walking net there keeps a different pool.
func TestUpdateCoalescedAtThePruneBoundary(t *testing.T) {
	sizing := Sizing{Rows: 5, Width: 8}
	trigger := 2 * NewCountSketch(sizing, rand.New(rand.NewSource(1))).candCap
	const fresh = 40
	for _, total := range []int{trigger - 1, trigger, trigger + 1} {
		split := NewCountSketch(sizing, rand.New(rand.NewSource(5)))
		whole := NewCountSketch(sizing, rand.New(rand.NewSource(5)))
		pool := make([]sketch.Update, total-fresh)
		for i := range pool {
			pool[i] = sketch.Update{Item: 1000 + uint64(i), Delta: int64(1 + i%5)}
		}
		split.UpdateBatch(pool)
		whole.UpdateBatch(pool)
		var raw []sketch.Update
		for i := range fresh - 1 {
			raw = append(raw, sketch.Update{Item: uint64(i), Delta: 1})
		}
		raw = append(raw, sketch.Update{Item: 99, Delta: 3}, sketch.Update{Item: 99, Delta: -3})
		for i := range fresh - 1 {
			raw = append(raw, sketch.Update{Item: uint64(i), Delta: int64(2 * i)})
		}
		var co sketch.Coalescer
		net := co.Coalesce(nil, raw)
		if len(pool)+len(net) != total {
			t.Fatalf("pool %d + net %d, want %d", len(pool), len(net), total)
		}
		split.UpdateCoalesced(net, raw)
		whole.UpdateBatch(raw)
		a, _ := split.MarshalBinary()
		b, _ := whole.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Errorf("pool + batch = %d (prune trigger %d): UpdateCoalesced encodes differently from UpdateBatch(raw)", total, trigger)
		}
	}
}
