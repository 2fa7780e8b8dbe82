// Package sketch defines the interfaces shared by all streaming estimators
// in this repository: the static (non-robust) sketches under internal/f0,
// internal/fp, internal/heavyhitters and internal/entropy, and the
// adversarially robust wrappers under internal/robust that are built from
// them via the sketch-switching and computation-paths transformations of
// internal/core.
//
// Beyond the core Estimator contract, two optional interfaces carry the
// ingest fast paths (incremental.go): IncrementalEstimator marks sketches
// whose Estimate reads running aggregates in O(rows) — maintained exactly
// on integer-valued counters and rebuilt from scratch every ResumInterval
// updates via Resummate — and BatchUpdater marks kernels that ingest a
// coalesced batch per virtual call, with the hard requirement that
// batching is observationally invisible (identical state for any chunking
// of the same stream). A robust wrapper decides per update by theorem and
// has no batch method: ApplyBatch, the one batch loop, feeds it.
// A third, CoalesceInvariant (coalesce.go), marks batch estimators whose
// state does not depend on whether a batch's duplicate items were merged
// first; Coalescer does the merging, per batch for the engine's shard
// workers and per catch-up for core.Lagged. A fourth, CoalescedUpdater,
// takes a catch-up in both forms, coalesced for the state that allows it
// and raw for the rest; core.Lagged coalesces for declarers of either.
// The conformance kit's incremental-consistency, batch-consistency,
// coalesce-consistency and split-coalesce-consistency properties enforce
// the four contracts for every registered type.
//
// Every optional interface is probed by type assertion, so each has to
// earn its place by a non-test caller or a rung of the benchmark ladder
// (bench --trace 1):
//
//	interface             implementers                                                           non-test caller                                     ladder rung
//	BatchUpdater          F2Sketch, KMV, Median, CountSketch (kernels only)                      ApplyBatch: engine shard worker, core.Lagged        sketch.update_ns, robust.update_ns, robust.state_bytes (batch-fed: F2Sketch hashes a block once, a KMV orders only the candidates it can keep and merges them in one pass)
//	CoalesceInvariant     F2Sketch, KMV, Median (iff its members)                                core.Lagged: every catch-up coalesced               robust.self_update_ns, ingest_updates_per_s on ingest_robust (a dense ensemble's buffer is kept folded through Coalescer.Fold, so it drains once per PendingCap distinct items)
//	CoalescedUpdater      CountSketch                                                            core.Lagged: the Theorem 6.5 ring's catch-ups       robust.update_ns on mixed_durable
//	IncrementalEstimator  F2Sketch, CountSketch, MaxStable                                       none; the conformance kit holds the contract        sketch.estimate_ns, robust.update_single_ns
//	PointQuerier          CountSketch, robust.HeavyHitters                                       engine.QueryBatch                                   sketch.point_ns, engine.point_us
//	TopKQuerier           CountSketch, robust.HeavyHitters                                       engine.QueryBatch                                   sketch.topk_us, robust.topk_us, engine.topk_us
//	RobustnessReporter    Switcher, Paths, robust.HeavyHitters                                   engine shard publish, to /v1/stats and /v2/query    robust.switches, robust.copies_live
//	Resetter              F2Sketch, CountSketch                                                  core.Switcher.fresh, HeavyHitters.refresh           robust.state_bytes, server_rss_mb (a flip reuses the copy it retires)
//	DuplicateInsensitive  KMV, Median (iff its members), Alg2 (below the batching degree), Exact robust.NewCryptoF0, NewOracleF0 refuse non-declarers none: a soundness check (Theorem 10.1)
//	engine.MassReporter   entropy.CC                                                             engine shard publish; the Entropy combiner needs it none: a merged cc tenant is wrong without it
//
// CountSketch's counters are an fp.F2Sketch held as a named field, so where
// both appear in a row CountSketch implements the interface through that
// kernel (UpdateBatch, Resummate and Estimate forward to it). It still
// does not declare CoalesceInvariant, and must not come to by embedding:
// its candidate pool depends on arrival order. That is why it is the
// CoalescedUpdater: its counters take a catch-up coalesced, its pool the
// same catch-up raw. Likewise F2Sketch answers
// no per-coordinate interface — the server's point gate, engine.QueryBatch
// and the frozen ring all probe by assertion.
//
// robust's estimate adapter forwards BatchUpdater, CoalesceInvariant and
// the reporter, and over a norm ring's F2 copies the Resetter; it does not
// forward CoalescedUpdater, so a Switcher over CountSketch copies replays
// its catch-ups raw.
// IncrementalEstimator is the one with no caller outside its implementers
// (each resummates itself on ResumInterval, Merge and Unmarshal): it names
// a contract, it is not dispatched on. The two per-coordinate rows stop at
// the sketches and HeavyHitters on purpose: a generic wrapper's guarantee
// covers its rounded estimate only.
package sketch

import (
	"cmp"
	"math"
	"math/rand"
)

// Estimator is a one-pass streaming algorithm that tracks a real-valued
// statistic g(f) of the frequency vector f of the stream processed so far.
// Implementations must support queries after every update (the paper's
// "tracking" guarantee), not only at the end of the stream.
type Estimator interface {
	// Update processes the stream update (item, delta), i.e. f[item] += delta.
	// Insertion-only estimators may require delta > 0; they document this.
	Update(item uint64, delta int64)

	// Estimate returns the current estimate of g(f).
	Estimate() float64

	// SpaceBytes returns the number of bytes of working state held by the
	// estimator. It is the quantity compared in Table 1 of the paper and
	// excludes transient per-update scratch space.
	SpaceBytes() int
}

// Factory constructs a fresh, independent Estimator instance seeded with
// the given value. The sketch-switching transformation calls a Factory
// once per copy (and again on every restart in ring mode), so instances
// built from distinct seeds must use independent randomness.
type Factory func(seed int64) Estimator

// Resetter is implemented by kernels that can restart in place: Reset(rng)
// leaves the instance exactly as its constructor would have built it from
// rng at the same dimensions — every coefficient drawn in the same order,
// counters zero — in the memory it already holds. Its callers restart a
// copy through it instead of building one to throw the old one away:
// core.Switcher, a ring when it restarts a slot and a dense ensemble when
// it builds the copy a flip makes active in the one the flip spent (in
// both modes its Factory must then build an instance from dist.Rand(seed),
// math/rand's sequence for that seed, and nothing else), and the Theorem
// 6.5 CountSketch ring.
type Resetter interface {
	Reset(rng *rand.Rand)
}

// PointQuerier is implemented by sketches that support per-coordinate
// frequency estimates (e.g. CountSketch), the primitive behind the heavy
// hitters algorithms of Section 6 of the paper.
type PointQuerier interface {
	Estimator

	// Query returns an estimate of f[item].
	Query(item uint64) float64
}

// ItemWeight is one candidate heavy item together with its estimated
// frequency — the unit of a heavy hitters answer set.
type ItemWeight struct {
	Item   uint64
	Weight float64
}

// CompareRank is the order every top-k answer is ranked in: decreasing
// |Weight|, ties by ascending Item — a total order on a set of distinct
// items, so a ranking is a function of the weights alone. It is a
// slices.SortFunc comparator.
func CompareRank(a, b ItemWeight) int {
	if wa, wb := math.Abs(a.Weight), math.Abs(b.Weight); wa != wb {
		if wa > wb {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Item, b.Item)
}

// TopKQuerier is implemented by sketches that maintain a bounded candidate
// pool of heavy items (Section 6's heavy hitters surface): TopK emits the
// k candidates of largest estimated magnitude without enumerating the
// universe. Implementations must order by CompareRank, so answers are
// deterministic for a fixed sketch state.
type TopKQuerier interface {
	PointQuerier

	// TopK returns up to k candidates, largest estimated |Weight| first.
	TopK(k int) []ItemWeight
}

// DuplicateInsensitive is a marker implemented by estimators whose internal
// state provably does not change when an item that already appeared is
// inserted again (with probability 1 over the estimator's randomness).
// The cryptographic robustification of Section 10 requires this property
// of its inner sketch and refuses estimators that do not declare it.
type DuplicateInsensitive interface {
	// DuplicateInsensitive returns true if re-inserting a previously seen
	// item never changes the estimator's state.
	DuplicateInsensitive() bool
}
