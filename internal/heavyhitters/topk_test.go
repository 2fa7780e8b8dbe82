package heavyhitters

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/sketch"
)

// referenceTopK is TopK as it stood before the pool was read in blocks: one
// Query per candidate, then a full sort of the pool.
func referenceTopK(cs *CountSketch, k int) []sketch.ItemWeight {
	if k <= 0 {
		return nil
	}
	all := make([]sketch.ItemWeight, 0, len(cs.pool.entries))
	for _, e := range cs.pool.entries {
		all = append(all, sketch.ItemWeight{Item: e.item, Weight: cs.Query(e.item)})
	}
	sort.Slice(all, func(i, j int) bool {
		ai, aj := math.Abs(all[i].Weight), math.Abs(all[j].Weight)
		if ai != aj {
			return ai > aj
		}
		return all[i].Item < all[j].Item
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// referenceHeavyHitters is HeavyHitters read one Query per candidate.
func referenceHeavyHitters(cs *CountSketch, thresh float64) []uint64 {
	var out []uint64
	for _, e := range cs.pool.entries {
		if math.Abs(cs.Query(e.item)) >= thresh {
			out = append(out, e.item)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// identical is reflect.DeepEqual with weights compared by their bits, so
// a −0 where the reference has +0 counts as a difference: it encodes as
// another answer.
func identical(got, want []sketch.ItemWeight) bool {
	if !reflect.DeepEqual(got, want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
			return false
		}
	}
	return true
}

// TestTopKMatchesPerItemQuery: the block read and the selection answer
// exactly what per-item queries and a full sort answer — weights to the
// bit, order included — over odd row counts 1–13, widths 8–200, turnstile
// deltas, pools that have been pruned, and counters widened to int64.
func TestTopKMatchesPerItemQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pruned := 0
	for trial := 0; trial < 60; trial++ {
		s := Sizing{Rows: 1 + 2*rng.Intn(7), Width: 8 + rng.Intn(193)}
		cs := NewCountSketch(s, rand.New(rand.NewSource(int64(trial))))
		narrow := cs.kernel.SpaceBytes()
		universe := 1 + rng.Intn(20*s.Width) // up to 5× the prune trigger: pools past a prune
		seen := map[uint64]bool{}
		for n := rng.Intn(4000); n > 0; n-- {
			d := int64(1 + rng.Intn(5))
			if rng.Intn(3) == 0 {
				d = -d
			}
			it := uint64(rng.Intn(universe))
			seen[it] = true
			cs.Update(it, d)
		}
		if trial%4 == 0 { // one delta no int32 counter holds: the kernel widens
			cs.Update(uint64(rng.Intn(universe)), 1<<31+int64(rng.Intn(100)))
			if cs.kernel.SpaceBytes() != narrow+4*s.Rows*s.Width {
				t.Fatalf("trial %d: kernel did not widen", trial)
			}
		}
		if len(cs.pool.entries) < len(seen) {
			pruned++
		}
		pool := len(cs.pool.entries)
		for _, k := range []int{1, 10, pool, math.MaxInt} {
			if got, want := cs.TopK(k), referenceTopK(cs, k); !identical(got, want) {
				t.Fatalf("trial %d (%d×%d, pool %d), k=%d:\ngot  %v\nwant %v", trial, s.Rows, s.Width, pool, k, got, want)
			}
		}
		threshs := []float64{0, 1}
		if top := referenceTopK(cs, 10); len(top) > 0 {
			threshs = append(threshs, math.Abs(top[len(top)-1].Weight))
		}
		for _, thresh := range threshs {
			if got, want := cs.HeavyHitters(thresh), referenceHeavyHitters(cs, thresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, HeavyHitters(%v):\ngot  %v\nwant %v", trial, thresh, got, want)
			}
		}
	}
	if pruned < 10 {
		t.Errorf("only %d of 60 trials pruned their pool, want at least 10", pruned)
	}
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestTopKRetainsNoScratch: ranking a full pool leaves nothing behind on
// the sketch. A robust ring recycles its frozen copy into every slot, so a
// pool-sized buffer kept by one ranking would be carried by all of them.
func TestTopKRetainsNoScratch(t *testing.T) {
	s := Sizing{Rows: 31, Width: 1423} // a Theorem 6.5 ring copy at the benchmark's ε
	cs := NewCountSketch(s, rand.New(rand.NewSource(7)))
	for i := 0; i < 2*cs.candCap; i++ { // the largest pool before a prune
		cs.Update(uint64(i)*0x9E3779B97F4A7C15, int64(1+i%7))
	}
	if len(cs.pool.entries) != 2*cs.candCap {
		t.Fatalf("pool holds %d, want %d", len(cs.pool.entries), 2*cs.candCap)
	}
	cs.Query(1) // Query's row scratch is bounded by the rows; let it exist before measuring
	before := liveHeap()
	if got := len(cs.TopK(math.MaxInt)); got != 2*cs.candCap {
		t.Fatalf("TopK(MaxInt) returned %d, want the pool", got)
	}
	cs.HeavyHitters(0)
	if grew := liveHeap() - before; grew > 64<<10 {
		t.Errorf("live heap grew by %d bytes across a full-pool TopK and HeavyHitters, want under 64 KiB", grew)
	}
	runtime.KeepAlive(cs)
}
