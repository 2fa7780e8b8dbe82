package fp

import "errors"

// ErrIncompatible is returned when two sketches do not share the
// randomness that linear-sketch merging requires.
var ErrIncompatible = errors.New("fp: sketches do not share randomness; use Fresh() copies of one origin")

// Fresh returns an empty F2Sketch sharing f's hash functions.
func (f *F2Sketch) Fresh() *F2Sketch {
	return &F2Sketch{
		rows: f.rows, w: f.w, hs: f.hs,
		c32:   make([]int32, f.rows*f.w),
		sumSq: make([]float64, f.rows),
	}
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
	done := 0
	if f.c64 == nil && other.c64 == nil {
		done = addCounters(f.c32, other.c32)
	}
	if done < f.rows*f.w { // what is left needs 64 bits on one side at least
		if f.c64 == nil {
			f.widen()
		}
		if other.c64 != nil {
			addCounters(f.c64[done:], other.c64[done:])
		} else {
			addCounters(f.c64[done:], other.c32[done:])
		}
	}
	f.Resummate()
	return nil
}

// addCounters adds src into dst, counter by counter, and returns how many
// it added: all of src, or those before the first sum that does not fit A.
func addCounters[A, B counter](dst []A, src []B) int {
	dst = dst[:len(src)]
	for i, v := range src {
		s := int64(dst[i]) + int64(v)
		if int64(A(s)) != s {
			return i
		}
		dst[i] = A(s)
	}
	return len(src)
}
