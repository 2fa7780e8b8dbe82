package fp

import "errors"

// ErrIncompatible is returned when two sketches do not share the
// randomness that linear-sketch merging requires.
var ErrIncompatible = errors.New("fp: sketches do not share randomness; use Fresh() copies of one origin")

// Fresh returns an empty F2Sketch sharing f's hash functions.
func (f *F2Sketch) Fresh() *F2Sketch {
	cp := &F2Sketch{rows: f.rows, w: f.w, hs: f.hs}
	for r := 0; r < f.rows; r++ {
		cp.c = append(cp.c, make([]int64, f.w))
	}
	cp.sumSq = make([]float64, f.rows)
	return cp
}

// Merge adds other's counters into f. Because the sketch is linear, the
// merged state equals the sketch of the concatenated streams. Both
// sketches must share hash functions (be Fresh copies of one origin).
func (f *F2Sketch) Merge(other *F2Sketch) error {
	if f.rows != other.rows || f.w != other.w {
		return ErrIncompatible
	}
	for r := range f.hs {
		if !f.hs[r].Equal(other.hs[r]) {
			return ErrIncompatible
		}
	}
	for r := 0; r < f.rows; r++ {
		for b := 0; b < f.w; b++ {
			f.c[r][b] += other.c[r][b]
		}
	}
	f.Resummate()
	return nil
}
