package heavyhitters

import "errors"

// ErrIncompatible is returned when two sketches do not share the
// randomness that linear-sketch merging requires.
var ErrIncompatible = errors.New("heavyhitters: sketches do not share randomness; use Fresh() copies of one origin")

// Fresh returns an empty CountSketch sharing cs's hash functions.
func (cs *CountSketch) Fresh() *CountSketch {
	return &CountSketch{kernel: cs.kernel.Fresh(), pool: newCandPool(cs.candCap), candCap: cs.candCap}
}

// Merge adds other's counters into cs and unions the candidate pools,
// summing retention tallies, then prunes once if the union is oversized.
// Both sketches must share hash functions (be Fresh copies of one origin);
// the merged counters equal the sketch of the concatenated streams.
func (cs *CountSketch) Merge(other *CountSketch) error {
	if err := cs.kernel.Merge(other.kernel); err != nil {
		return ErrIncompatible // the kernel's one failure, under this package's name
	}
	var spill []candEntry // other's items cs lacks
	for _, e := range other.pool.entries {
		if s := cs.pool.at(e.item); *s != 0 {
			cs.pool.entries[*s-1].weight += e.weight
		} else {
			spill = append(spill, e)
		}
	}
	union := append(cs.pool.entries, spill...) // past the reserve only if it is pruned
	if len(union) > 2*cs.candCap {
		selectTop(union, cs.candCap)
		union = union[:cs.candCap]
	}
	cs.pool.entries = append(cs.pool.entries[:0], union...) // back in the reserve
	cs.pool.keep(len(union))                                // which indexes it
	return nil
}
