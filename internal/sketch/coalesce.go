package sketch

// CoalesceInvariant is a marker implemented by batch estimators for which
// UpdateBatch(b) and UpdateBatch(Coalesce(b)) leave identical state:
// duplicate-insensitive sketches that ignore deltas (KMV, medians of
// them) and linear sketches that are exact on integer counters (F2Sketch
// — the condition IncrementalEstimator documents). Sketches that multiply
// deltas into floating-point variates (CC, Indyk, MaxStable) round a
// merged delta differently, and CountSketch's candidate pool depends on
// arrival order; they must not declare it. core.Lagged feeds declarers
// every catch-up coalesced; the conformance kit's coalesce-consistency
// property holds them to the claim.
type CoalesceInvariant interface {
	BatchUpdater

	// CoalesceInvariant reports whether coalescing a batch before
	// UpdateBatch never changes the resulting state.
	CoalesceInvariant() bool
}

// Coalescer merges the duplicate items of a batch by summing their
// deltas. It owns the item → position index it needs, so a long-lived
// caller (an engine shard worker, a Switcher) stops allocating once the
// index has grown to its batch size. Not safe for concurrent use.
type Coalescer struct {
	idx map[uint64]int
}

// Coalesce appends to dst one entry per distinct item of b, in
// first-occurrence order, carrying the item's net delta; entries that sum
// to zero are kept, so delta-ignoring F0 estimators still see the item.
// dst may be b[:0] to compact b in place.
func (c *Coalescer) Coalesce(dst, b []Update) []Update {
	if c.idx == nil {
		c.idx = make(map[uint64]int, len(b))
	}
	clear(c.idx)
	for _, u := range b {
		if j, ok := c.idx[u.Item]; ok {
			dst[j].Delta += u.Delta
		} else {
			c.idx[u.Item] = len(dst)
			dst = append(dst, u)
		}
	}
	return dst
}
