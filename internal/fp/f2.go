// Package fp implements frequency-moment (Fp) estimators: the AMS F2
// sketch in both its dense form (the attack target of Section 9 of the
// paper) and its fast bucketed form, Indyk's p-stable sketch for
// p ∈ (0, 2], and a max-stability estimator for p > 2. These are the
// static algorithms wrapped by the robustification framework
// (Theorems 1.4–1.7).
//
// F2Sketch (f2.go) is also the repository's one signed-counter matrix:
// the row update kernel, the running row aggregates, Resummate, the
// counter merge and the per-row codec exist here and nowhere else.
// heavyhitters.CountSketch holds an F2Sketch for its counters and owns
// only what Lemma 6.4 adds on top — the median point query and the
// candidate pool.
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
//
// Counters are int64 — every delta is an int64 and every sign is ±1 — which
// is what keeps the aggregates exact and what CoalesceInvariant rests on.
type F2Sketch struct {
	rows, w int
	hs      []hash.Poly
	c       [][]int64

	sumSq      []float64 // per-row running Σ_b c[r][b]²
	scratch    []float64 // Estimate's quickselect buffer
	sinceResum int
}

// F2Sizing returns (rows, width) giving (ε, δ) relative error for F2.
type F2Sizing struct {
	Rows, Width int
}

// Bytes is what a sketch of these dimensions keeps resident: the counters.
func (s F2Sizing) Bytes() float64 { return 8 * float64(s.Rows) * float64(s.Width) }

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
		f.c = append(f.c, make([]int64, s.Width))
	}
	f.sumSq = make([]float64, s.Rows)
	return f
}

// Dims returns the sketch dimensions.
func (f *F2Sketch) Dims() F2Sizing { return F2Sizing{Rows: f.rows, Width: f.w} }

// Update implements sketch.Estimator (turnstile deltas allowed).
func (f *F2Sketch) Update(item uint64, delta int64) {
	w, hs, sumSq := f.w, f.hs, f.sumSq // locals: the hash call makes the compiler reload fields per row
	for r, row := range f.c {
		sign, b := hs[r].SignBucket(item, w)
		d := sign * delta
		old := row[b]
		row[b] = old + d
		x := float64(d)
		sumSq[r] += x * (2*float64(old) + x)
	}
	f.sinceResum++
	if f.sinceResum >= sketch.ResumInterval {
		f.Resummate()
	}
}

// f2Block is how many updates UpdateBatch hashes at a time into stack
// scratch. Sizes from 128 to 1 024 measure the same; 4 KiB costs a
// one-update batch less to clear than the Horner chains it replaces.
const f2Block = 128

// UpdateBatch implements sketch.BatchUpdater. Per block of the batch it
// takes the field powers of every item once for all rows; then per row one
// pass that only hashes, into (bucket, sign) words, and one that only
// moves the counters and the row aggregate. Kept apart, the hashes
// pipeline and the counter loads overlap instead of each waiting on the
// multiply chain before it. Rows are independent and each sees the batch
// in order, so the final state is bit-for-bit that of per-update calls.
func (f *F2Sketch) UpdateBatch(batch []sketch.Update) {
	var pw [f2Block][3]uint64
	var sb [f2Block]uint64
	for lo := 0; lo < len(batch); lo += f2Block {
		blk := batch[lo:min(lo+f2Block, len(batch))]
		for i, u := range blk {
			pw[i] = hash.Powers(u.Item)
		}
		for r, row := range f.c {
			f.hs[r].SignBuckets(sb[:len(blk)], pw[:], f.w)
			s := f.sumSq[r]
			for i, u := range blk {
				d := (int64(sb[i]&1)*2 - 1) * u.Delta
				old := row[sb[i]>>1]
				row[sb[i]>>1] = old + d
				x := float64(d)
				s += x * (2*float64(old) + x)
			}
			f.sumSq[r] = s
		}
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
			fv := float64(v)
			s += fv * fv
		}
		f.sumSq[r] = s
	}
	f.sinceResum = 0
}

// AppendSigned appends, per row, item's signed counter sign_r(item)·C_r[b_r(item)]
// — each an unbiased estimate of f_item with error ≤ ‖f‖₂/√width — for
// the caller to take a median over (CountSketch's point query).
func (f *F2Sketch) AppendSigned(dst []float64, item uint64) []float64 {
	for r := 0; r < f.rows; r++ {
		sign, b := f.hs[r].SignBucket(item, f.w)
		dst = append(dst, float64(sign*f.c[r][b]))
	}
	return dst
}

// SpaceBytes charges the counters, row aggregates and hash seeds.
func (f *F2Sketch) SpaceBytes() int {
	total := 8 * f.rows // sumSq
	for r := 0; r < f.rows; r++ {
		total += 8*f.w + f.hs[r].SpaceBytes()
	}
	return total
}
