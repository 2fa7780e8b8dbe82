package fp

import (
	"math"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/hash"
	"repro/internal/order"
)

// MaxStable estimates F_p for p > 2 using the max-stability of
// exponentially scaled frequencies: with E_i i.i.d. Exp(1), the maximum
// M = max_i |f_i|/E_i^{1/p} satisfies Pr[M ≤ x] = exp(−F_p·x^{−p}), so
// Y = M^{−p} is Exp(F_p)-distributed, and k independent repetitions give
// the unbiased estimator F̂_p = (k−1)/Σ_j Y_j with relative error O(1/√k).
//
// Each repetition recovers its maximum from a small CountSketch of the
// scaled vector with width Θ(n^{1−2/p}) — the width at which the scaled
// maximum dominates the sketch noise, and the source of the n^{1−2/p}
// factor in Theorem 1.7's space bound. This construction substitutes for
// the Ganguly–Woodruff algorithm [14] the paper cites.
// The sketch implements sketch.IncrementalEstimator: each row caches its
// largest bucket magnitude (and its position), updated in O(1) per touch
// except when the maximal bucket shrinks, which triggers an O(w) rescan
// of that row; each repetition caches its Y_j = M^{−p}, recomputed only
// when one of its row maxima actually moves. Both caches hold exact
// values (a max is stored, not accumulated), so estimates are bit-for-bit
// those of a full recompute.
type MaxStable struct {
	p     float64
	k     int // repetitions
	rows  int
	w     int
	salts []uint64    // per repetition
	hs    []hash.Poly // per (repetition, row)
	c     [][]float64 // per (repetition*rows), width w

	rowMax   []float64 // per (repetition*rows): max_b |c[ix][b]|
	rowArg   []int     // per (repetition*rows): a bucket attaining rowMax
	repY     []float64 // per repetition: M^{−p} (0 if M == 0), lazily refreshed
	repDirty []bool    // per repetition: repY stale (a row max moved)
	scratch  []float64 // repMax's quickselect buffer
}

// SizeMaxStableWidth returns the per-repetition sketch width Θ(n^{1−2/p}).
func SizeMaxStableWidth(p float64, n uint64) int {
	w := int(math.Ceil(8 * math.Pow(float64(n), 1-2/p)))
	if w < 8 {
		w = 8
	}
	return w
}

// NewMaxStable returns a p > 2 moment estimator with k repetitions, rows
// CountSketch rows per repetition, and width w (see SizeMaxStableWidth).
func NewMaxStable(p float64, k, rows, w int, rng *rand.Rand) *MaxStable {
	if p <= 2 {
		panic("fp: MaxStable needs p > 2 (use Indyk for p <= 2)")
	}
	if k < 2 || rows < 1 || w < 1 {
		panic("fp: MaxStable needs k >= 2, rows >= 1, w >= 1")
	}
	s := &MaxStable{p: p, k: k, rows: rows, w: w}
	for j := 0; j < k; j++ {
		s.salts = append(s.salts, rng.Uint64())
		for r := 0; r < rows; r++ {
			s.hs = append(s.hs, hash.NewPoly(4, rng))
			s.c = append(s.c, make([]float64, w))
		}
	}
	s.rowMax = make([]float64, k*rows)
	s.rowArg = make([]int, k*rows)
	s.repY = make([]float64, k)
	s.repDirty = make([]bool, k)
	return s
}

// scale returns E_{item}^{−1/p} for repetition j, identical across calls.
func (s *MaxStable) scale(item uint64, j int) float64 {
	e := dist.Exp(dist.SplitMix64(item ^ s.salts[j]))
	return math.Pow(e, -1/s.p)
}

// Update implements sketch.Estimator (turnstile deltas allowed).
func (s *MaxStable) Update(item uint64, delta int64) {
	d := float64(delta)
	for j := 0; j < s.k; j++ {
		sd := d * s.scale(item, j)
		for r := 0; r < s.rows; r++ {
			ix := j*s.rows + r
			sign, b := s.hs[ix].SignBucket(item, s.w)
			s.c[ix][b] += float64(sign) * sd
			a := math.Abs(s.c[ix][b])
			switch {
			case b == s.rowArg[ix] && a < s.rowMax[ix]:
				// The maximal bucket shrank: rescan the row.
				s.rescanRow(ix)
				s.repDirty[j] = true
			case a > s.rowMax[ix]:
				s.rowMax[ix] = a
				s.rowArg[ix] = b
				s.repDirty[j] = true
			}
		}
	}
}

// rescanRow recomputes rowMax/rowArg for one (repetition, row) pair.
func (s *MaxStable) rescanRow(ix int) {
	var m float64
	arg := 0
	for b, v := range s.c[ix] {
		if a := math.Abs(v); a > m {
			m, arg = a, b
		}
	}
	s.rowMax[ix] = m
	s.rowArg[ix] = arg
}

// repMax returns the estimate of max_i |f_i|·E_i^{−1/p} for repetition j:
// the median over rows of the largest bucket magnitude.
func (s *MaxStable) repMax(j int) float64 {
	if cap(s.scratch) < s.rows {
		s.scratch = make([]float64, s.rows)
	}
	maxes := s.scratch[:s.rows]
	copy(maxes, s.rowMax[j*s.rows:(j+1)*s.rows])
	return order.UpperMedian(maxes)
}

// Estimate returns the estimate of the norm ‖f‖_p.
func (s *MaxStable) Estimate() float64 { return math.Pow(s.Moment(), 1/s.p) }

// Moment returns the estimate of F_p = Σ|f_i|^p, via the exponential MLE
// over repetitions. Only repetitions whose row maxima moved since the
// last call pay for a median + power; the rest read their cached Y_j.
func (s *MaxStable) Moment() float64 {
	var sumY float64
	valid := 0
	for j := 0; j < s.k; j++ {
		if s.repDirty[j] {
			if m := s.repMax(j); m > 0 {
				s.repY[j] = math.Pow(m, -s.p)
			} else {
				s.repY[j] = 0
			}
			s.repDirty[j] = false
		}
		if s.repY[j] <= 0 {
			continue
		}
		valid++
		sumY += s.repY[j]
	}
	if valid < 2 || sumY == 0 {
		return 0
	}
	return float64(valid-1) / sumY
}

// Resummate implements sketch.IncrementalEstimator: it rebuilds the row
// maxima and repetition caches from the counters. The caches are exact at
// all times (maxima are stored, not accumulated), so this is a
// consistency anchor rather than a drift correction.
func (s *MaxStable) Resummate() {
	for ix := range s.c {
		s.rescanRow(ix)
	}
	for j := range s.repDirty {
		s.repDirty[j] = true
	}
}

// P returns the moment order.
func (s *MaxStable) P() float64 { return s.p }

// SpaceBytes charges counters, salts, hash seeds and the row/rep caches.
func (s *MaxStable) SpaceBytes() int {
	total := 8*len(s.salts) + 16*len(s.rowMax) + 9*len(s.repY)
	for _, h := range s.hs {
		total += h.SpaceBytes()
	}
	for _, row := range s.c {
		total += 8 * len(row)
	}
	return total
}
