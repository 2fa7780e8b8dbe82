package heavyhitters

import "errors"

// ErrIncompatible is returned when two sketches do not share the
// randomness that linear-sketch merging requires.
var ErrIncompatible = errors.New("heavyhitters: sketches do not share randomness; use Fresh() copies of one origin")

// Fresh returns an empty CountSketch sharing cs's hash functions.
func (cs *CountSketch) Fresh() *CountSketch {
	return &CountSketch{kernel: cs.kernel.Fresh(), cands: make(map[uint64]int64), candCap: cs.candCap}
}

// Merge adds other's counters into cs and unions the candidate pools,
// summing retention tallies (pruning if oversized). Both sketches must
// share hash functions (be Fresh copies of one origin); the merged
// counters equal the sketch of the concatenated streams.
func (cs *CountSketch) Merge(other *CountSketch) error {
	if err := cs.kernel.Merge(other.kernel); err != nil {
		return ErrIncompatible // the kernel's one failure, under this package's name
	}
	for it, w := range other.cands {
		cs.cands[it] += w
	}
	if len(cs.cands) > 2*cs.candCap {
		cs.pruneCandidates()
	}
	return nil
}
