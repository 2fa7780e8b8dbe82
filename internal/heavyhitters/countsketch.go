// Package heavyhitters implements the point-query and heavy hitters
// substrate of Section 6 of the paper: CountSketch, the static (ε, δ)
// point-query algorithm of Lemma 6.4. The robust L2 heavy hitters
// algorithm of Theorem 6.5 is assembled from CountSketch and a robust F2
// estimator in internal/robust.
//
// The rows × width signed counters are not this package's: a CountSketch
// holds one fp.F2Sketch — the update kernel, the AMS row aggregates,
// Resummate, the counter merge and the per-row codec live there once —
// and owns what Lemma 6.4 adds: the median point query, the candidate
// pool with its pruning, TopK, HeavyHitters, and the header and pool
// halves of its own wire format.
package heavyhitters

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/fp"
	"repro/internal/order"
	"repro/internal/sketch"
)

// CountSketch is the Charikar–Chen–Farach-Colton sketch: rows × width
// signed counters. Query(i) returns the median over rows of the signed
// counter of i's bucket, an estimate of f_i with additive error
// ≤ ‖f‖₂/√width per row (median over rows boosts the probability). The
// sketch also tracks a bounded pool of candidate heavy items so the heavy
// hitters *set* can be emitted without enumerating the universe, and its
// rows double as AMS estimators of F2 — they are an fp.F2Sketch, held as a
// named field and not embedded: the pool depends on arrival order, so a
// CountSketch must not inherit the kernel's sketch.CoalesceInvariant
// declaration, nor its codec, Fresh or Merge. It implements
// sketch.CoalescedUpdater instead: a batch's coalesced form for the
// counters, the batch itself in arrival order for the pool.
//
// The candidate pool carries one int64 per item: the net delta observed
// since the item was admitted. It is retention metadata only — a cheap
// running magnitude that lets the pool prune without re-querying every
// candidate through the sketch (the pre-refactor prune cost rows hash
// evaluations per pool entry, which dominated distinct-heavy ingest) —
// and is never used to answer queries: Query, TopK, and HeavyHitters
// always read the counters. An item admitted late starts its tally at
// its admission-time delta, so the tally lower-bounds |f_i| on insertion
// streams; a recurring heavy item outgrows one-shot items either way,
// which is all retention needs.
type CountSketch struct {
	kernel *fp.F2Sketch // the rows × width signed counters

	pool    candPool
	candCap int

	qbuf []float64 // Query scratch: per-row estimates awaiting the median
}

// Sizing holds CountSketch dimensions.
type Sizing struct {
	Rows, Width int
}

// Bytes is the most a sketch of these dimensions keeps resident once its
// stream has filled it: the counters at the kernel's widened 8 bytes each
// (fp.F2Sizing.Bytes says why), and the candidate pool as NewCountSketch
// reserves it.
func (s Sizing) Bytes() float64 {
	return 8*float64(s.Rows)*float64(s.Width) + float64(poolBytes(4*s.Width))
}

// SizeForPointQuery returns dimensions giving additive error ε‖f‖₂ on
// every point query with probability 1−δ (union-bound δ over the queries
// you intend to make; Lemma 6.4 uses δ/n).
func SizeForPointQuery(eps, delta float64) Sizing {
	return SizeForPointQueryLn(eps, math.Log(1/delta))
}

// SizeForPointQueryLn is SizeForPointQuery with the failure probability
// in log form, δ = exp(−lnInvDelta) — the form the computation-paths
// sizings need. It is the single source of the CountSketch sizing
// constants; SizeForPointQuery delegates here.
func SizeForPointQueryLn(eps, lnInvDelta float64) Sizing {
	if eps <= 0 || eps >= 1 {
		panic("heavyhitters: need 0 < eps < 1")
	}
	rows := 2*int(math.Ceil(0.75*math.Log2E*lnInvDelta))/2*2 + 1
	if rows < 3 {
		rows = 3
	}
	return Sizing{Rows: rows, Width: int(math.Ceil(8 / (eps * eps)))}
}

// NewCountSketch returns a CountSketch with the given dimensions. The
// candidate pool keeps 4·width items through a prune (enough for every
// possible ε-heavy hitter at the sizing above) and is reserved here for
// the twice as many, plus one, that trigger it.
func NewCountSketch(s Sizing, rng *rand.Rand) *CountSketch {
	return &CountSketch{
		kernel:  fp.NewF2(fp.F2Sizing(s), rng),
		pool:    newCandPool(4 * s.Width),
		candCap: 4 * s.Width,
	}
}

// Reset implements sketch.Resetter: the sketch becomes what NewCountSketch
// would build from rng at the same dimensions, in the memory it already
// holds — the kernel's counters and the emptied pool.
func (cs *CountSketch) Reset(rng *rand.Rand) {
	cs.kernel.Reset(rng)
	cs.pool.reset()
}

// Update implements sketch.PointQuerier (turnstile deltas allowed).
func (cs *CountSketch) Update(item uint64, delta int64) {
	cs.kernel.Update(item, delta)
	cs.pool.add(item, delta)
	if len(cs.pool.entries) > 2*cs.candCap {
		cs.pool.keep(cs.candCap)
	}
}

// UpdateBatch implements sketch.BatchUpdater: the kernel's batch pass
// over the counters, then the candidate-pool pass in update order, so
// admission and pruning decisions match per-update calls exactly.
func (cs *CountSketch) UpdateBatch(batch []sketch.Update) { cs.UpdateCoalesced(batch, batch) }

// UpdateCoalesced implements sketch.CoalescedUpdater: the counters are an
// F2Sketch, coalesce-invariant, so they take the net batch; the pool pass
// walks raw in arrival order. When the pool and net's distinct items
// together fit under the prune trigger, no prune can fire on the way, and
// walking net lands the same keys and tallies in fewer steps.
func (cs *CountSketch) UpdateCoalesced(net, raw []sketch.Update) {
	cs.kernel.UpdateBatch(net)
	if len(cs.pool.entries)+len(net) <= 2*cs.candCap {
		raw = net
	}
	for _, u := range raw {
		cs.pool.add(u.Item, u.Delta)
		if len(cs.pool.entries) > 2*cs.candCap {
			cs.pool.keep(cs.candCap)
		}
	}
}

// entryLess is the deterministic retention order: decreasing net-delta
// magnitude, ties by ascending item id. Items are unique within the
// pool, so this is a strict total order.
func entryLess(a, b candEntry) bool {
	wa, wb := abs64(a.weight), abs64(b.weight)
	if wa != wb {
		return wa > wb
	}
	return a.item < b.item
}

// selectTop partitions all so that all[:k] holds exactly the k first
// entries of the entryLess order (in unspecified internal order):
// iterative quickselect with median-of-three pivoting, expected O(n).
func selectTop(all []candEntry, k int) {
	idx, lo, hi := k-1, 0, len(all)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if entryLess(all[mid], all[lo]) {
			all[lo], all[mid] = all[mid], all[lo]
		}
		if entryLess(all[hi-1], all[lo]) {
			all[lo], all[hi-1] = all[hi-1], all[lo]
		}
		if entryLess(all[hi-1], all[mid]) {
			all[mid], all[hi-1] = all[hi-1], all[mid]
		}
		pivot := all[mid]
		i, j := lo, hi-1
		for i <= j {
			for entryLess(all[i], pivot) {
				i++
			}
			for entryLess(pivot, all[j]) {
				j--
			}
			if i <= j {
				all[i], all[j] = all[j], all[i]
				i++
				j--
			}
		}
		switch {
		case idx <= j:
			hi = j + 1
		case idx >= i:
			lo = i
		default:
			return
		}
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Query returns the point-query estimate of f_item.
func (cs *CountSketch) Query(item uint64) float64 {
	cs.qbuf = cs.kernel.AppendSigned(cs.qbuf[:0], item)
	return order.Median(cs.qbuf)
}

// Estimate implements sketch.Estimator with the F2 estimate derived from
// the rows (each row's squared norm is an AMS estimator of ‖f‖₂²), read
// from the running row aggregates in O(rows).
func (cs *CountSketch) Estimate() float64 { return cs.kernel.Estimate() }

// Resummate implements sketch.IncrementalEstimator through the kernel.
func (cs *CountSketch) Resummate() { cs.kernel.Resummate() }

// L2 returns the estimate of ‖f‖₂.
func (cs *CountSketch) L2() float64 { return math.Sqrt(cs.Estimate()) }

// weigh reads the whole pool through the kernel's block read: the items
// in pool order and, index for index, their point-query estimates. Both
// slices are the caller's to drop.
func (cs *CountSketch) weigh() (items []uint64, ws []float64) {
	items = make([]uint64, len(cs.pool.entries))
	for i, e := range cs.pool.entries {
		items[i] = e.item
	}
	return items, cs.kernel.AppendMedians(make([]float64, 0, len(items)), items)
}

// HeavyHitters returns every candidate whose estimated magnitude is at
// least thresh, sorted by id.
func (cs *CountSketch) HeavyHitters(thresh float64) []uint64 {
	items, ws := cs.weigh()
	var out []uint64
	for i, it := range items {
		if math.Abs(ws[i]) >= thresh {
			out = append(out, it)
		}
	}
	slices.Sort(out)
	return out
}

// TopK implements sketch.TopKQuerier: the k candidates of largest
// estimated magnitude, ordered by sketch.CompareRank — decreasing
// |weight|, ties by ascending id, so the answer is deterministic for a
// fixed sketch state. Weights are the signed point-query estimates, so a
// turnstile stream can surface heavily negative coordinates too. The pool
// is weighed whole, but only the candidates at least as heavy as the k-th
// heaviest are sorted.
func (cs *CountSketch) TopK(k int) []sketch.ItemWeight {
	if k <= 0 {
		return nil
	}
	items, ws := cs.weigh()
	cut := 0.0 // the k-th largest magnitude, when the pool holds more than k
	if len(items) > k {
		mags := make([]float64, len(ws))
		for i, w := range ws {
			mags[i] = math.Abs(w)
		}
		cut = order.Select(mags, len(mags)-k)
	}
	top := make([]sketch.ItemWeight, 0, min(k, len(items)))
	for i, it := range items {
		if math.Abs(ws[i]) >= cut {
			top = append(top, sketch.ItemWeight{Item: it, Weight: ws[i]})
		}
	}
	slices.SortFunc(top, sketch.CompareRank) // ties at cut may leave more than k
	return top[:min(k, len(top))]
}

// SpaceBytes charges the kernel (counters, hash seeds, row aggregates) and
// the candidate pool as reserved (item id plus retention tally per entry,
// and its index).
func (cs *CountSketch) SpaceBytes() int { return cs.kernel.SpaceBytes() + cs.pool.spaceBytes() }
