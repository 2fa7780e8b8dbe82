package f0

import (
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/hash"
)

// HLL is a HyperLogLog distinct-elements estimator: 2^precision registers,
// each holding the maximum leading-zero rank observed among the items
// routed to it, combined by the bias-corrected harmonic mean. Standard
// error ≈ 1.04/√(2^precision).
//
// Like KMV it is duplicate-insensitive with probability 1 (a repeated item
// recomputes the same register/rank pair, and registers only ever
// increase to a value they already reached), so it is a valid inner sketch
// for the Section 10 cryptographic robustification — included because it
// is the estimator most production systems deploy, making the "wrap what
// you already run" story of Theorem 10.1 concrete.
//
// Small cardinalities use linear counting over the zero registers, the
// standard correction.
type HLL struct {
	precision uint8
	regs      []uint8
	h         hash.Poly
}

// NewHLL returns a HyperLogLog with 2^precision registers; precision must
// be in [4, 18].
func NewHLL(precision uint8, rng *rand.Rand) *HLL {
	if precision < 4 || precision > 18 {
		panic("f0: HLL precision must be in [4, 18]")
	}
	return &HLL{
		precision: precision,
		regs:      make([]uint8, 1<<precision),
		h:         hash.NewPoly(2, rng),
	}
}

// Update implements sketch.Estimator (deltas ignored).
//
// The polynomial hash value is passed through a SplitMix64 finalizer
// before the register/rank split: HLL's register occupancy analysis needs
// well-mixed bits, and a bare degree-1 polynomial maps structured inputs
// (e.g. arithmetic progressions of item ids) onto arithmetic progressions
// mod Prime, which clump in register space. The mixer is deterministic,
// so duplicate-insensitivity is preserved.
func (s *HLL) Update(item uint64, delta int64) {
	h := dist.SplitMix64(s.h.Eval(item))
	reg := h >> (64 - uint(s.precision))
	rest := h << uint(s.precision)
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > s.regs[reg] {
		s.regs[reg] = rank
	}
}

// Estimate returns the cardinality estimate with the standard small-range
// (linear counting) correction.
func (s *HLL) Estimate() float64 {
	m := float64(len(s.regs))
	var sum float64
	zeros := 0
	for _, r := range s.regs {
		sum += math.Pow(2, -float64(r))
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return est
}

// SpaceBytes charges one byte per register plus the hash seed.
func (s *HLL) SpaceBytes() int { return len(s.regs) + s.h.SpaceBytes() }

// DuplicateInsensitive implements sketch.DuplicateInsensitive.
func (s *HLL) DuplicateInsensitive() bool { return true }

// Hash exposes the register-routing hash (for the seed-leakage
// experiments, as with KMV).
func (s *HLL) Hash() hash.Poly { return s.h }

// Merge folds other into s: registers take the pointwise max. Both
// sketches must share precision and hash function (i.e. be Fresh copies
// of one origin); merging is how distributed shards combine their
// streams, and the result is exactly the sketch of the concatenation.
func (s *HLL) Merge(other *HLL) error {
	if other.precision != s.precision {
		return errPrecisionMismatch
	}
	if !s.h.Equal(other.h) {
		return ErrIncompatible
	}
	for i, r := range other.regs {
		if r > s.regs[i] {
			s.regs[i] = r
		}
	}
	return nil
}
