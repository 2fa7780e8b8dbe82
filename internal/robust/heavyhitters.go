package robust

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/heavyhitters"
	"repro/internal/sketch"
)

// HeavyHitters is the adversarially robust L2 heavy hitters (and ε-point
// query) algorithm of Theorem 6.5. Two coupled components:
//
//   - a robust L2-norm tracker R_t (ring sketch switching over bucketed
//     AMS sketches, Theorem 4.1), whose ε/2-rounded output defines the
//     time steps t_1 < t_2 < … at which the norm has grown enough for the
//     published point-query vector to need refreshing;
//   - a ring of Θ(ε⁻¹ log ε⁻¹) CountSketch instances. At each t_i the
//     least-recently-restarted instance is frozen (moved out of the ring,
//     not copied) to serve all point queries and the heavy hitters set
//     until t_{i+1}, and its slot restarts on the stream suffix. By
//     Proposition 6.3 the frozen estimates stay O(ε)-correct between
//     refreshes, and by the Theorem 6.5 argument a restarted instance misses
//     at most an ε/100 fraction of the L2 mass by the time it is frozen again.
//
// Only frozen outputs and the rounded norm are published, so each
// CountSketch's randomness influences at most one published refresh —
// the same mechanism that makes sketch switching robust.
//
// Ring instances are not updated synchronously: they sit in a core.Lagged
// bounded at core.PendingCap, like a Switcher's trailing copies, and are
// brought up to date in batch (or on demand, just before one is frozen),
// so the per-update cost is the norm tracker plus an append. A catch-up is
// coalesced once for every copy's counters, while each pool walks it in
// arrival order (sketch.CoalescedUpdater). The frozen snapshot is always
// taken at the exact refresh position, so published answers are
// update-for-update identical to the synchronous formulation.
type HeavyHitters struct {
	eps    float64
	norm   *core.Switcher
	ring   core.Lagged // *heavyhitters.CountSketch instances
	next   int         // index of the least-recently-restarted live instance
	frozen *heavyhitters.CountSketch
	ranked []sketch.ItemWeight // frozen's whole pool in TopK order; nil until a TopK asks after a refresh
	flips  int                 // the norm tracker's switches at the last refresh
	sizing heavyhitters.Sizing
	rng    *rand.Rand
}

// NewHeavyHitters returns a robust (ε, δ)-L2 heavy hitters algorithm
// (Definition 6.1 semantics with threshold parameter ε) over a universe of
// size n.
func NewHeavyHitters(eps, delta float64, n uint64, seed int64) *HeavyHitters {
	copies, sizing := ringSizing(eps, delta)
	hh := &HeavyHitters{
		eps: eps,
		// Theorem 6.5 tracks the norm at accuracy ε/100; a Θ(ε)-accurate
		// tracker preserves the refresh cadence and threshold semantics up
		// to constants at a fraction of the space, and the integration
		// tests validate the end-to-end guarantee empirically.
		norm:   NewFp(2, eps, delta/2, n, seed),
		sizing: sizing,
		rng:    dist.Rand(seed + 0x5ee),
	}
	ring := make([]sketch.Estimator, copies)
	for i := range ring {
		ring[i] = heavyhitters.NewCountSketch(sizing, hh.rng)
	}
	hh.ring = core.NewLagged(ring, core.PendingCap)
	return hh
}

// ringSizing is the Theorem 6.5 CountSketch ring: how many, how large.
func ringSizing(eps, delta float64) (int, heavyhitters.Sizing) {
	copies := core.RingCopies(eps)
	return copies, heavyhitters.SizeForPointQuery(eps/4, delta/float64(copies*4))
}

// heavyHittersBytes prices NewHeavyHitters: the norm tracker, the ring
// plus the frozen copy at their full pools, the ring's lag buffer and the
// generator the ring draws its restarts from.
func heavyHittersBytes(eps, delta float64, n uint64) float64 {
	copies, sizing := ringSizing(eps, delta)
	return Policy{Kind: Ring}.StateBytes(eps, delta/2, n, LpProblem(2)) + float64(copies+1)*sizing.Bytes() + lagBytes + float64(dist.RandBytes)
}

// Update feeds the norm tracker, buffers the update for the ring, and
// refreshes the frozen snapshot whenever the tracker flips: a flip is
// exactly a change of the published norm.
func (hh *HeavyHitters) Update(item uint64, delta int64) {
	hh.norm.Update(item, delta)
	hh.ring.Push(item, delta)
	if n := hh.norm.Switches(); n != hh.flips {
		hh.flips = n
		hh.refresh()
	}
	if hh.ring.Full() {
		hh.ring.Drain()
	}
}

// refresh moves the next ring instance (caught up to the current stream
// position first, so the snapshot is exact) out of the ring to be the frozen
// copy — nothing feeds it again — and restarts its slot on the stream suffix
// with the frozen copy this one retires, re-drawn in place: after the first
// refresh the ring and the frozen copy trade the same copies+1 sketches.
func (hh *HeavyHitters) refresh() {
	restart := hh.frozen
	hh.frozen, hh.ranked = hh.ring.Current(hh.next).(*heavyhitters.CountSketch), nil
	if restart == nil {
		restart = heavyhitters.NewCountSketch(hh.sizing, hh.rng)
	} else {
		restart.Reset(hh.rng)
	}
	hh.ring.Replace(hh.next, restart)
	hh.next = (hh.next + 1) % hh.ring.Len()
}

// Query returns the published point-query estimate of f_item (from the
// frozen snapshot only — live instances never leak).
func (hh *HeavyHitters) Query(item uint64) float64 {
	if hh.frozen == nil {
		return 0
	}
	return hh.frozen.Query(item)
}

// TopK implements sketch.TopKQuerier from the frozen snapshot only: the
// answer set changes at most once per published norm refresh, so — like
// Query — each CountSketch's randomness influences at most one published
// refresh, preserving the Theorem 6.5 robustness argument. The frozen copy
// does not change between refreshes, so its pool is ranked by the first
// call after one and every answer until the next is a prefix of that.
func (hh *HeavyHitters) TopK(k int) []sketch.ItemWeight {
	if hh.frozen == nil || k <= 0 {
		return nil
	}
	if hh.ranked == nil {
		hh.ranked = hh.frozen.TopK(math.MaxInt)
	}
	return append(hh.ranked[:0:0], hh.ranked[:min(k, len(hh.ranked))]...) // a copy: callers own what they get
}

// L2 returns the robust norm estimate R_t.
func (hh *HeavyHitters) L2() float64 { return hh.norm.Estimate() }

// Estimate implements sketch.Estimator with the robust L2 norm.
func (hh *HeavyHitters) Estimate() float64 { return hh.L2() }

// Set returns the published heavy hitters set: every candidate whose
// frozen estimate is at least (3/4)·ε·R_t, per the reduction from point
// queries to heavy hitters described before Theorem 6.5.
func (hh *HeavyHitters) Set() []uint64 {
	if hh.frozen == nil {
		return nil
	}
	return hh.frozen.HeavyHitters(0.75 * hh.eps * hh.L2()) // sorted by id already
}

// Robustness implements sketch.RobustnessReporter: the ring policy with
// the norm tracker's and the CountSketch ring's instances combined, and
// the published-refresh count as the consumed switches.
func (hh *HeavyHitters) Robustness() sketch.Robustness {
	r := hh.norm.Robustness()
	r.Copies += hh.ring.Len()
	return r
}

// SpaceBytes charges the norm tracker, the ring with its lag buffer, the
// frozen snapshot with its ranking, and the generator behind the restarts.
func (hh *HeavyHitters) SpaceBytes() int {
	total := hh.norm.SpaceBytes() + hh.ring.SpaceBytes() + 16*len(hh.ranked) + dist.RandBytes
	if hh.frozen != nil {
		total += hh.frozen.SpaceBytes()
	}
	return total
}
