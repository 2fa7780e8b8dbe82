package sketch

// Update is one stream update: f[Item] += Delta. It is the unit the
// engine's coalesced per-shard batches, core.Lagged's lag buffer and the
// kernels' batch fast path (BatchUpdater) exchange.
type Update struct {
	Item  uint64
	Delta int64
}

// BatchUpdater is the batch-apply fast path of a sketch kernel: an
// estimator that can ingest a whole coalesced batch per virtual call.
// UpdateBatch(b) must be observably identical to calling Update for each
// element of b in order. Only kernels implement it (and robust's adapter,
// forwarding to one): a robust wrapper's semantics are per update by
// theorem, so its batch path would be the loop ApplyBatch already is.
// core.Lagged feeds the non-active copies through it, copy-outer and
// update-inner, while the active copy keeps its per-update drift checks.
type BatchUpdater interface {
	Estimator

	// UpdateBatch processes the updates in order, equivalently to
	// repeated Update calls.
	UpdateBatch(batch []Update)
}

// ApplyBatch feeds batch to est in order, through its batch kernel when it
// has one. It is the repository's one batch loop.
func ApplyBatch(est Estimator, batch []Update) {
	if bu, ok := est.(BatchUpdater); ok {
		bu.UpdateBatch(batch)
		return
	}
	for _, u := range batch {
		est.Update(u.Item, u.Delta)
	}
}

// IncrementalEstimator is implemented by sketches that answer Estimate
// from running aggregates maintained in O(rows) per update instead of
// rescanning their counters — the fast path that makes per-update
// estimation (the robust wrappers' drift checks) affordable.
//
// The aggregates are exact as long as counters hold integer values below
// 2^53 (every delta is an int64 and every sign is ±1, so x·(2c+δ)-style
// aggregate updates incur no floating-point rounding). As belt and
// braces against streams that do push counters past integer exactness,
// implementations recompute their aggregates from the counters every
// ResumInterval updates; Resummate forces that recomputation now.
type IncrementalEstimator interface {
	Estimator

	// Resummate recomputes the running aggregates exactly from the
	// current counters. It never changes the estimator's logical state:
	// on integer-valued counters the estimate before and after is
	// bit-identical, and otherwise it may only shed accumulated
	// floating-point drift.
	Resummate()
}

// ResumInterval is the default self-resummation period of the
// incremental estimators: after this many updates an
// IncrementalEstimator rebuilds its aggregates from the counters. The
// amortized cost is a fraction of a counter scan per update; the benefit
// is that aggregate drift, impossible on integer-valued counters and
// bounded on any stream, cannot compound without bound.
const ResumInterval = 1 << 20
