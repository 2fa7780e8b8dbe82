package heavyhitters

import "errors"

// ErrIncompatible is returned when two sketches do not share the
// randomness that linear-sketch merging requires.
var ErrIncompatible = errors.New("heavyhitters: sketches do not share randomness; use Fresh() copies of one origin")

// Fresh returns an empty CountSketch sharing cs's hash functions.
func (cs *CountSketch) Fresh() *CountSketch {
	cp := &CountSketch{rows: cs.rows, w: cs.w, candCap: cs.candCap, hs: cs.hs}
	for r := 0; r < cs.rows; r++ {
		cp.c = append(cp.c, make([]int64, cs.w))
	}
	cp.cands = make(map[uint64]int64)
	cp.sumSq = make([]float64, cs.rows)
	return cp
}

// Merge adds other's counters into cs and unions the candidate pools,
// summing retention tallies (pruning if oversized). Both sketches must
// share hash functions (be
// Fresh copies of one origin); the merged counters equal the sketch of
// the concatenated streams.
func (cs *CountSketch) Merge(other *CountSketch) error {
	if cs.rows != other.rows || cs.w != other.w {
		return ErrIncompatible
	}
	for r := range cs.hs {
		if !samePoly(cs.hs[r], other.hs[r]) {
			return ErrIncompatible
		}
	}
	for r := 0; r < cs.rows; r++ {
		for b := 0; b < cs.w; b++ {
			cs.c[r][b] += other.c[r][b]
		}
	}
	cs.Resummate()
	for it, w := range other.cands {
		cs.cands[it] += w
	}
	if len(cs.cands) > 2*cs.candCap {
		cs.pruneCandidates()
	}
	return nil
}

func samePoly(a, b interface{ Coeffs() []uint64 }) bool {
	ca, cb := a.Coeffs(), b.Coeffs()
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}
