package f0

import (
	"errors"
	"slices"
)

// ErrIncompatible is returned when two sketches do not share the
// randomness (hash functions / seeds) that mergeability requires.
var ErrIncompatible = errors.New("f0: sketches do not share randomness; use Fresh() copies of one origin")

// Fresh returns an empty KMV sharing s's hash function, for use as a
// shard sketch that can later be merged back into (a copy of) s.
func (s *KMV) Fresh() *KMV {
	return &KMV{k: s.k, h: s.h}
}

// Merge folds other into s: the union of retained minima, re-trimmed to
// the k smallest. Both sketches must share the hash function (be Fresh
// copies of one origin); k may differ, the receiver's k wins. The merged
// sketch is exactly the sketch of the concatenated streams, so shards of
// a distributed stream can be combined losslessly.
func (s *KMV) Merge(other *KMV) error {
	if !s.h.Equal(other.h) {
		return ErrIncompatible
	}
	c := slices.Clone(other.vals)
	slices.Reverse(c) // its minima, descending: ascending is already in order
	s.mergeValues(c)
	return nil
}
