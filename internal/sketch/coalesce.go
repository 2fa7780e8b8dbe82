package sketch

import (
	"math/bits"
	"math/rand/v2"
)

// CoalesceInvariant is a marker implemented by batch estimators for which
// UpdateBatch(b) and UpdateBatch(Coalesce(b)) leave identical state:
// duplicate-insensitive sketches that ignore deltas (KMV, medians of
// them) and linear sketches that are exact on integer counters (F2Sketch
// — the condition IncrementalEstimator documents). Sketches that multiply
// deltas into floating-point variates (CC, Indyk, MaxStable) round a
// merged delta differently, and CountSketch's candidate pool depends on
// arrival order; they must not declare it. core.Lagged feeds declarers
// every catch-up coalesced, and keeps a dense ensemble's whole backlog
// folded (Coalescer.Fold); the conformance kit's coalesce-consistency
// property holds them to the claim.
type CoalesceInvariant interface {
	BatchUpdater

	// CoalesceInvariant reports whether coalescing a batch before
	// UpdateBatch never changes the resulting state.
	CoalesceInvariant() bool
}

// CoalescedUpdater is implemented by batch estimators whose state is part
// coalesce-invariant and part order-dependent: CountSketch's counters are
// an F2Sketch, its candidate pool is not. UpdateCoalesced(Coalesce(raw),
// raw) must leave exactly the state UpdateBatch(raw) leaves, so the
// invariant part may take the short net batch while the rest walks raw in
// arrival order. core.Lagged hands every catch-up to implementers in both
// forms, coalescing once per catch-up; the conformance kit's
// split-coalesce-consistency property holds them to the contract.
type CoalescedUpdater interface {
	BatchUpdater

	// UpdateCoalesced processes raw, given net, its coalesced form.
	UpdateCoalesced(net, raw []Update)
}

// Coalescer merges the duplicate items of a batch by summing their
// deltas. Its index is one flat open-addressing table of (item, position,
// generation) slots, probed linearly from a hash of the item mixed with a
// key drawn once per process. A Coalesce uses the table's first power of
// two at least twice its batch and stamps the slots it fills with a fresh
// generation, so it costs O(len(batch)) and clears nothing an earlier,
// larger call left behind; a run of Folds shares one stamp over the whole
// table, so a folded backlog is indexed once. The table only grows, so a
// long-lived caller (an engine shard worker, a core.Lagged) stops
// allocating once it has met its largest batch. Positions are 32-bit: dst
// stays under 2³² entries. Not safe for concurrent use.
type Coalescer struct {
	slots []coalesceSlot
	gen   uint32 // the stamp of the latest call; 0 marks a slot never filled
}

// coalesceSlot is one index entry: an item, its position in dst, and the
// call that wrote it.
type coalesceSlot struct {
	item uint64
	pos  uint32
	gen  uint32
}

// coalesceKey keys the index hash. It comes from process randomness, never
// from a tenant's seed or its input, so no stream can aim its items at one
// probe run.
var coalesceKey = rand.Uint64()

// Coalesce appends to dst one entry per distinct item of b, in
// first-occurrence order, carrying the item's net delta; entries that sum
// to zero are kept, so delta-ignoring F0 estimators still see the item.
// dst may be b[:0] to compact b in place.
func (c *Coalescer) Coalesce(dst, b []Update) []Update {
	if len(b) == 0 {
		return dst
	}
	c.Reserve(len(b))
	c.restamp()
	return c.index(dst, b, indexLg(len(b)))
}

// Fold coalesces b onto acc, the net of the batches folded since acc was
// last empty, through an index kept between folds over the whole table
// (Reserve it for the longest acc), so a fold costs len(b). A fold onto an
// empty acc starts a new index; b may be acc's own tail, buf[len(acc):].
func (c *Coalescer) Fold(acc, b []Update) []Update {
	if len(acc) == 0 {
		c.restamp()
	}
	if len(b) == 0 {
		return acc
	}
	return c.index(acc, b, bits.Len(uint(len(c.slots)))-1)
}

// restamp starts a new index. A wrapped stamp clears the table: one from
// 2³² calls ago would read as live.
func (c *Coalescer) restamp() {
	if c.gen++; c.gen == 0 {
		clear(c.slots)
		c.gen = 1
	}
}

// index merges b into dst through the table's first 1<<lg slots under the
// current stamp.
func (c *Coalescer) index(dst, b []Update, lg int) []Update {
	slots, gen := c.slots[:1<<lg], c.gen
	shift, mask := uint(64-lg), uint64(1<<lg-1)
	for _, u := range b {
		hi, lo := bits.Mul64(u.Item^coalesceKey, 0x9e3779b97f4a7c15)
		for i := (hi ^ lo) >> shift; ; i = (i + 1) & mask {
			s := &slots[i]
			if s.gen != gen {
				*s = coalesceSlot{item: u.Item, pos: uint32(len(dst)), gen: gen}
				dst = append(dst, u)
				break
			}
			if s.item == u.Item {
				dst[s.pos].Delta += u.Delta
				break
			}
		}
	}
	return dst
}

// Reserve grows the index to what a call of n updates uses. A caller that
// knows its longest call reserves it up front, so what it holds is a
// function of n, not of the calls it happened to meet.
func (c *Coalescer) Reserve(n int) {
	if n > 0 && 1<<indexLg(n) > len(c.slots) {
		c.slots = make([]coalesceSlot, 1<<indexLg(n))
	}
}

// indexLg is the log size of the index a call of n > 0 updates uses: the
// first power of two at least 2n.
func indexLg(n int) int { return bits.Len(uint(2*n - 1)) }

// SpaceBytes is the index as allocated: 16 bytes a slot.
func (c *Coalescer) SpaceBytes() int { return 16 * len(c.slots) }
