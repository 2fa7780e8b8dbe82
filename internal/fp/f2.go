package fp

import (
	"math"
	"math/rand"

	"repro/internal/hash"
	"repro/internal/order"
	"repro/internal/sketch"
)

// F2Sketch is the bucketed ("fast") variant of the AMS F2 estimator: r
// independent rows, each hashing items into w buckets with a 4-wise sign;
// each row's squared norm Σ_b C_b² is an unbiased estimate of F2 = ‖f‖₂²
// with relative standard deviation O(1/√w), and the median over rows
// boosts the success probability to 1 − exp(−Ω(r)). It is a linear sketch,
// handles turnstile updates, and is the static algorithm behind the robust
// F2/L2 estimators (Theorems 1.4 and 6.5).
//
// The sketch implements sketch.IncrementalEstimator: each row's squared
// norm is maintained as a running aggregate (an update to bucket b shifts
// the row sum by x·(2·C_b + x), exact on integer-valued counters), so
// Estimate costs O(rows) — a scratch-buffer quickselect over the row
// aggregates — instead of an O(rows·width) rescan. That difference is
// what makes the robust wrappers' per-update drift checks affordable.
type F2Sketch struct {
	rows, w int
	hs      []hash.Poly
	c       [][]float64

	sumSq      []float64 // per-row running Σ_b c[r][b]²
	scratch    []float64 // Estimate's quickselect buffer
	sinceResum int
}

// F2Sizing returns (rows, width) giving (ε, δ) relative error for F2.
type F2Sizing struct {
	Rows, Width int
}

// SizeF2 computes sketch dimensions for an (ε, δ) guarantee at a single
// point in the stream; for (ε, δ)-strong tracking over m steps pass
// δ/m (the union-bound reduction of the paper's footnote 1).
func SizeF2(eps, delta float64) F2Sizing {
	return SizeF2Ln(eps, math.Log(1/delta))
}

// SizeF2Ln is SizeF2 with the failure probability in log form,
// δ = exp(−lnInvDelta) — the form the computation-paths sizings need,
// whose δ₀ routinely lies below float64's smallest positive value. It is
// the single source of the F2 sizing constants; SizeF2 delegates here.
func SizeF2Ln(eps, lnInvDelta float64) F2Sizing {
	if eps <= 0 || eps >= 1 {
		panic("fp: need 0 < eps < 1")
	}
	rows := int(math.Ceil(0.6 * math.Log2E * lnInvDelta))
	if rows < 3 {
		rows = 3
	}
	if rows%2 == 0 {
		rows++
	}
	w := int(math.Ceil(12 / (eps * eps)))
	return F2Sizing{Rows: rows, Width: w}
}

// NewF2 returns an F2 sketch with the given dimensions.
func NewF2(s F2Sizing, rng *rand.Rand) *F2Sketch {
	f := &F2Sketch{rows: s.Rows, w: s.Width}
	for r := 0; r < s.Rows; r++ {
		f.hs = append(f.hs, hash.NewPoly(4, rng))
		f.c = append(f.c, make([]float64, s.Width))
	}
	f.sumSq = make([]float64, s.Rows)
	return f
}

// Update implements sketch.Estimator (turnstile deltas allowed).
func (f *F2Sketch) Update(item uint64, delta int64) {
	d := float64(delta)
	for r := 0; r < f.rows; r++ {
		sign, b := f.hs[r].SignBucket(item, f.w)
		x := float64(sign) * d
		old := f.c[r][b]
		f.c[r][b] = old + x
		f.sumSq[r] += x * (2*old + x)
	}
	f.sinceResum++
	if f.sinceResum >= sketch.ResumInterval {
		f.Resummate()
	}
}

// UpdateBatch implements sketch.BatchUpdater with a row-outer loop: one
// row's hash function, counters and running aggregate stay hot while the
// whole batch streams through it. Rows are independent, so the final
// state is bit-for-bit that of per-update calls.
func (f *F2Sketch) UpdateBatch(batch []sketch.Update) {
	for r := 0; r < f.rows; r++ {
		h := f.hs[r]
		row := f.c[r]
		s := f.sumSq[r]
		for _, u := range batch {
			sign, b := h.SignBucket(u.Item, f.w)
			x := float64(sign) * float64(u.Delta)
			old := row[b]
			row[b] = old + x
			s += x * (2*old + x)
		}
		f.sumSq[r] = s
	}
	f.sinceResum += len(batch)
	if f.sinceResum >= sketch.ResumInterval {
		f.Resummate()
	}
}

// CoalesceInvariant implements sketch.CoalesceInvariant: counters and row
// aggregates are integer-valued, hence exact, so an item's summed delta
// lands them where its separate deltas would. (Self-resummation counts
// batch entries, so its cadence may differ; on integers it is a no-op.)
func (f *F2Sketch) CoalesceInvariant() bool { return true }

// Estimate returns the median-of-rows estimate of F2 = ‖f‖₂², read from
// the running row aggregates in O(rows).
func (f *F2Sketch) Estimate() float64 {
	if cap(f.scratch) < f.rows {
		f.scratch = make([]float64, f.rows)
	}
	ests := f.scratch[:f.rows]
	copy(ests, f.sumSq)
	return order.UpperMedian(ests)
}

// Resummate implements sketch.IncrementalEstimator: it recomputes the row
// aggregates exactly from the counters.
func (f *F2Sketch) Resummate() {
	for r := 0; r < f.rows; r++ {
		var s float64
		for _, v := range f.c[r] {
			s += v * v
		}
		f.sumSq[r] = s
	}
	f.sinceResum = 0
}

// EstimateL2 returns the median-of-rows estimate of ‖f‖₂.
func (f *F2Sketch) EstimateL2() float64 { return math.Sqrt(f.Estimate()) }

// SpaceBytes charges the counters, row aggregates and hash seeds.
func (f *F2Sketch) SpaceBytes() int {
	total := 8 * f.rows // sumSq
	for r := 0; r < f.rows; r++ {
		total += 8*f.w + f.hs[r].SpaceBytes()
	}
	return total
}
