// Package fp implements frequency-moment (Fp) estimators: the AMS F2
// sketch in both its dense form (the attack target of Section 9 of the
// paper) and its fast bucketed form, Indyk's p-stable sketch for
// p ∈ (0, 2], and a max-stability estimator for p > 2. These are the
// static algorithms wrapped by the robustification framework
// (Theorems 1.4–1.7).
//
// F2Sketch (f2.go) is also the repository's one signed-counter matrix:
// the row update kernel, the running row aggregates, Resummate, the
// counter merge, the per-row codec and the block read of medians over a
// pool exist here and nowhere else.
// heavyhitters.CountSketch holds an F2Sketch for its counters and owns
// only what Lemma 6.4 adds on top — the median point query and the
// candidate pool. The matrix is one flat allocation, int32 until a counter
// overflows and int64 from then on (F2Sketch says why nothing observable
// depends on which), and a ring restarts one in place through Reset: what a
// copy weighs is what a robust ensemble multiplies by its copy count.
package fp

import (
	"math"
	"math/bits"
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
// Counters are integers — every delta is an int64 and every sign is ±1 —
// which is what keeps the aggregates exact and what CoalesceInvariant rests
// on. They are kept narrow until one overflows: one flat row-major []int32,
// which the whole sketch trades for a []int64 the moment a sum leaves int32
// (in Update, UpdateBatch, Merge or ReadRows), and takes back only at Reset.
// Width is storage, not state: the integers, and so every estimate,
// aggregate, point read and encoding, are those of an all-int64 sketch, and
// only SpaceBytes tells the two apart. (Coalescing reorders a bucket's
// partial sums, so a coalesced batch can widen a sketch its separate deltas
// would not, or the reverse; the integers it lands on are the same.) No
// unit-insertion stream this repository hosts puts 2³¹ into one bucket, so
// a robust ensemble's copies weigh half of what they are priced at:
// F2Sizing.Bytes charges the wide form, because one client update with a
// large delta widens every copy.
type F2Sketch struct {
	rows, w int
	hs      []hash.Poly
	c32     []int32 // the rows × w counters, row-major; exactly one of c32, c64 is non-nil
	c64     []int64

	sumSq      []float64 // per-row running Σ_b c[r][b]²
	scratch    []float64 // Estimate's quickselect buffer
	sinceResum int
}

// counter is a counter matrix's element type: the kernels are written once
// and compiled for both.
type counter interface{ int32 | int64 }

// F2Sizing returns (rows, width) giving (ε, δ) relative error for F2.
type F2Sizing struct {
	Rows, Width int
}

// Bytes is the most a sketch of these dimensions keeps resident: the
// counters at 8 bytes each, the widened form — admission must hold for the
// tenant whose client sends one 2³¹ delta. A narrow sketch reports half.
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
	return &F2Sketch{
		rows: s.Rows, w: s.Width,
		hs:    drawRows(s.Rows, rng),
		c32:   make([]int32, s.Rows*s.Width),
		sumSq: make([]float64, s.Rows),
	}
}

// drawRows draws one 4-wise polynomial per row: all the randomness a sketch
// has, in the order every stored seed and golden stream depends on.
func drawRows(rows int, rng *rand.Rand) []hash.Poly {
	hs := make([]hash.Poly, rows)
	for r := range hs {
		hs[r] = hash.NewPoly(4, rng)
	}
	return hs
}

// Reset implements sketch.Resetter: the sketch becomes what NewF2 would
// build from rng at the same dimensions — fresh row polynomials, zero
// counters and aggregates, narrow again — reusing the counter memory, so a
// ring restarts a slot without allocating a copy. The polynomials go in a
// new slice: Fresh copies share the old one.
func (f *F2Sketch) Reset(rng *rand.Rand) {
	f.hs = drawRows(f.rows, rng)
	if f.c64 != nil {
		f.c32, f.c64 = make([]int32, len(f.c64)), nil
	} else {
		clear(f.c32)
	}
	clear(f.sumSq)
	f.sinceResum = 0
}

// widen trades the int32 counters for int64 ones holding the same integers.
func (f *F2Sketch) widen() {
	f.c64 = make([]int64, len(f.c32))
	for i, v := range f.c32 {
		f.c64[i] = int64(v)
	}
	f.c32 = nil
}

// Dims returns the sketch dimensions.
func (f *F2Sketch) Dims() F2Sizing { return F2Sizing{Rows: f.rows, Width: f.w} }

// Update implements sketch.Estimator (turnstile deltas allowed).
func (f *F2Sketch) Update(item uint64, delta int64) {
	r := 0
	if f.c64 == nil {
		if r = updateRows(f.c32, f, 0, item, delta); r < f.rows {
			f.widen()
		}
	}
	if r < f.rows {
		updateRows(f.c64, f, r, item, delta)
	}
	f.sinceResum++
	if f.sinceResum >= sketch.ResumInterval {
		f.Resummate()
	}
}

// updateRows applies one update to rows from, from+1, … of the counters c
// and returns the first row whose sum does not fit T, left untouched for
// the widened sketch to resume at (f.rows if every row took it).
func updateRows[T counter](c []T, f *F2Sketch, from int, item uint64, delta int64) int {
	w, hs, sumSq := f.w, f.hs, f.sumSq // locals: the hash call makes the compiler reload fields per row
	for r := from; r < len(hs); r++ {
		sign, b := hs[r].SignBucket(item, w)
		d := sign * delta
		p := &c[r*w+b]
		old := int64(*p)
		v := old + d
		if int64(T(v)) != v {
			return r
		}
		*p = T(v)
		x := float64(d)
		sumSq[r] += x * (2*float64(old) + x)
	}
	return len(hs)
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
// in order, so the final state is bit-for-bit that of per-update calls. A
// narrow row that meets a sum it cannot hold stops there; the sketch widens
// and the same row takes the rest of its block.
func (f *F2Sketch) UpdateBatch(batch []sketch.Update) {
	var pw [f2Block][3]uint64
	var sb [f2Block]uint64
	for lo := 0; lo < len(batch); lo += f2Block {
		blk := batch[lo:min(lo+f2Block, len(batch))]
		for i, u := range blk {
			pw[i] = hash.Powers(u.Item)
		}
		for r := 0; r < f.rows; r++ {
			f.hs[r].SignBuckets(sb[:len(blk)], pw[:], f.w)
			s, done := f.sumSq[r], 0
			if f.c64 == nil {
				if s, done = addSigned(f.c32[r*f.w:(r+1)*f.w], sb[:], blk, s); done < len(blk) {
					f.widen()
				}
			}
			if done < len(blk) {
				s, _ = addSigned(f.c64[r*f.w:(r+1)*f.w], sb[done:], blk[done:], s)
			}
			f.sumSq[r] = s
		}
	}
	f.sinceResum += len(batch)
	if f.sinceResum >= sketch.ResumInterval {
		f.Resummate()
	}
}

// addSigned moves one row's counters and its aggregate s by a block of
// updates hashed into sb, and returns how many it applied: all of them, or
// those before the first sum that does not fit T.
func addSigned[T counter](row []T, sb []uint64, blk []sketch.Update, s float64) (float64, int) {
	sb = sb[:len(blk)]
	for i, u := range blk {
		d := (int64(sb[i]&1)*2 - 1) * u.Delta
		old := int64(row[sb[i]>>1])
		v := old + d
		if int64(T(v)) != v {
			return s, i
		}
		row[sb[i]>>1] = T(v)
		x := float64(d)
		s += x * (2*float64(old) + x)
	}
	return s, len(blk)
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
	if f.c64 != nil {
		sumSquares(f.sumSq, f.c64)
	} else {
		sumSquares(f.sumSq, f.c32)
	}
	f.sinceResum = 0
}

// sumSquares sets sumSq[r] to row r's Σ_b c² for the len(sumSq) equal rows of c.
func sumSquares[T counter](sumSq []float64, c []T) {
	w := len(c) / len(sumSq)
	for r := range sumSq {
		var s float64
		for _, v := range c[r*w : (r+1)*w] {
			fv := float64(v)
			s += fv * fv
		}
		sumSq[r] = s
	}
}

// AppendSigned appends, per row, item's signed counter sign_r(item)·C_r[b_r(item)]
// — each an unbiased estimate of f_item with error ≤ ‖f‖₂/√width — for
// the caller to take a median over (CountSketch's point query).
func (f *F2Sketch) AppendSigned(dst []float64, item uint64) []float64 {
	for r := 0; r < f.rows; r++ {
		sign, b := f.hs[r].SignBucket(item, f.w)
		dst = append(dst, float64(sign*f.at(r*f.w+b)))
	}
	return dst
}

// AppendMedians appends, for each of items in order, the median over rows
// of its signed counters — order.Median of what AppendSigned appends, the
// point estimate CountSketch.Query returns — and returns dst. It reads a
// pool as UpdateBatch writes a batch: per block of items it takes their
// field powers once for all rows, hashes one row over the block with
// SignBuckets and gathers that row's signed counters, then sorts every
// item's column of rows at once, one compare-exchange of two rows across
// the block at a time, with no branch on the values. The block's
// rows × items integers live in one buffer sized to the block and dropped
// at return, so nothing that grows with len(items) outlives the call.
func (f *F2Sketch) AppendMedians(dst []float64, items []uint64) []float64 {
	var pw [f2Block][3]uint64
	var sb [f2Block]uint64
	n := min(len(items), f2Block)
	vals := make([]int64, f.rows*n) // row-major: row r of the block is vals[r*n : (r+1)*n]
	for lo := 0; lo < len(items); lo += n {
		blk := items[lo:min(lo+n, len(items))]
		m := len(blk)
		for i, it := range blk {
			pw[i] = hash.Powers(it)
		}
		for r := 0; r < f.rows; r++ {
			f.hs[r].SignBuckets(sb[:m], pw[:], f.w)
			if f.c64 != nil {
				gatherSigned(vals[r*n:r*n+m], f.c64[r*f.w:(r+1)*f.w], sb[:m])
			} else {
				gatherSigned(vals[r*n:r*n+m], f.c32[r*f.w:(r+1)*f.w], sb[:m])
			}
		}
		sortColumns(vals, f.rows, n, m)
		// order.Median's value: the middle of an odd column, the mean of
		// the two middles of an even one, each converted before the mean.
		k := f.rows / 2
		hi := vals[k*n : k*n+m]
		if f.rows%2 == 1 {
			for _, v := range hi {
				dst = append(dst, float64(v))
			}
			continue
		}
		for i, v := range vals[(k-1)*n : (k-1)*n+m] {
			dst = append(dst, (float64(v)+float64(hi[i]))/2)
		}
	}
	return dst
}

// sortColumns sorts the first m columns of the rows × n row-major matrix
// vals, every column at once, by Batcher's merge exchange (Knuth, TAOCP
// 5.2.2, Algorithm M): a fixed network of compare-exchanges of two rows,
// O(rows·log² rows) of them for any row count, none branching on a value.
func sortColumns(vals []int64, rows, n, m int) {
	t := bits.Len(uint(rows - 1)) // 2^t ≥ rows
	for p := 1 << t >> 1; p > 0; p >>= 1 {
		q, r, d := 1<<t>>1, 0, p
		for {
			for i := 0; i+d < rows; i++ {
				if i&p != r {
					continue
				}
				a, b := vals[i*n:i*n+m], vals[(i+d)*n:(i+d)*n+m]
				for j := range a {
					a[j], b[j] = min(a[j], b[j]), max(a[j], b[j])
				}
			}
			if q == p {
				break
			}
			q, r, d = q>>1, p, q-p
		}
	}
}

// gatherSigned sets vals[i] to the signed counter of row that sb[i] names,
// sign times integer as AppendSigned computes it.
func gatherSigned[T counter](vals []int64, row []T, sb []uint64) {
	for i, s := range sb {
		vals[i] = (int64(s&1)*2 - 1) * int64(row[s>>1])
	}
}

// at returns counter i of the row-major matrix.
func (f *F2Sketch) at(i int) int64 {
	if f.c64 != nil {
		return f.c64[i]
	}
	return int64(f.c32[i])
}

// SpaceBytes charges the counters at the width they are held in, the row
// aggregates and the hash seeds.
func (f *F2Sketch) SpaceBytes() int {
	total := 4*len(f.c32) + 8*len(f.c64) + 8*f.rows // counters, sumSq
	for _, h := range f.hs {
		total += h.SpaceBytes()
	}
	return total
}
