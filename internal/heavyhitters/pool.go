package heavyhitters

import (
	"math/bits"
	"math/rand/v2"
)

// candPool is a CountSketch's candidate pool, in the shape of
// sketch.Coalescer: the entries dense in arrival order, found through one
// flat open-addressing index of their positions, probed linearly from a
// hash of the item mixed with a key drawn once per process. Both are
// reserved for 2·candCap + 1 entries, the most a pool holds (the prune
// trigger is one past 2·candCap), so a pool allocates only when it is
// made, and what it holds is a function of candCap alone.
type candPool struct {
	entries []candEntry
	index   []uint32 // an entry's position + 1; 0 marks an empty slot
}

// candEntry is one pool item with its running net-delta tally.
type candEntry struct {
	item   uint64
	weight int64
}

// poolKey keys the index hash. It comes from process randomness, never
// from a tenant's seed or its input, so no stream can aim its items at one
// probe run.
var poolKey = rand.Uint64()

// poolIndexLg is the log size of the index over n entries: the first power
// of two at least 2n, so the index is at most half full.
func poolIndexLg(n int) int { return bits.Len(uint(2*n - 1)) }

// poolBytes is what newCandPool(candCap) allocates: 16 bytes an entry and
// 4 an index slot.
func poolBytes(candCap int) int {
	n := 2*candCap + 1
	return 16*n + 4<<poolIndexLg(n)
}

func newCandPool(candCap int) candPool {
	n := 2*candCap + 1
	return candPool{entries: make([]candEntry, 0, n), index: make([]uint32, 1<<poolIndexLg(n))}
}

// at returns the index slot holding item, or the empty slot where it goes.
func (p *candPool) at(item uint64) *uint32 {
	hi, lo := bits.Mul64(item^poolKey, 0x9e3779b97f4a7c15)
	mask := uint64(len(p.index) - 1)
	for i := (hi ^ lo) >> bits.LeadingZeros64(mask); ; i = (i + 1) & mask { // the hash's top log₂ len(index) bits
		if pos := p.index[i]; pos == 0 || p.entries[pos-1].item == item {
			return &p.index[i]
		}
	}
}

// add adds delta to item's tally, admitting item at delta when absent.
func (p *candPool) add(item uint64, delta int64) {
	s := p.at(item)
	if *s == 0 {
		p.entries = append(p.entries, candEntry{item: item})
		*s = uint32(len(p.entries))
	}
	p.entries[*s-1].weight += delta
}

// keep is a prune: it retains the k entries first in the entryLess order
// (largest running net-delta magnitude, ties by ascending item id, so the
// survivors are a function of the tallies alone), tallies kept, and
// indexes them. It is the ingest hot path's only super-constant work, so
// it stays off the sketch counters: one expected-linear selection over the
// dense entries, in place, and one pass to index the survivors.
func (p *candPool) keep(k int) {
	if len(p.entries) > k {
		selectTop(p.entries, k)
		p.entries = p.entries[:k]
	}
	clear(p.index)
	for pos, e := range p.entries {
		*p.at(e.item) = uint32(pos + 1)
	}
}

// reset empties the pool in the memory it holds.
func (p *candPool) reset() {
	p.entries = p.entries[:0]
	clear(p.index)
}

// spaceBytes is the pool as allocated.
func (p *candPool) spaceBytes() int { return 16*cap(p.entries) + 4*len(p.index) }
