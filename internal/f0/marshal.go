package f0

import (
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/hash"
)

// Binary format version; bumped on any layout change.
const kmvFormatV1 = 1

// MarshalBinary encodes the sketch state (including the hash function, so
// the decoded sketch can continue the stream and merge with its shards).
// The minima are written as held, descending, so equal states encode to
// equal bytes.
func (s *KMV) MarshalBinary() ([]byte, error) {
	var w codec.Writer
	w.U8(kmvFormatV1)
	w.U64(uint64(s.k))
	w.U64s(s.h.Coeffs())
	w.U64s(s.vals)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes state produced by MarshalBinary, replacing s. It
// takes the minima in any order (V1 was first written in heap order) but
// not repeated or outside the field: no stream produces either, and a
// repeat breaks the invariant every insert and merge relies on.
func (s *KMV) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	if v := r.U8(); v != kmvFormatV1 && r.Err() == nil {
		return fmt.Errorf("f0: unsupported KMV format version %d", v)
	}
	k := int(r.U64())
	coeffs := r.U64s()
	vals := r.U64s()
	if err := r.Done(); err != nil {
		return err
	}
	if k < 2 {
		return fmt.Errorf("f0: invalid KMV k = %d", k)
	}
	if len(vals) > k {
		return fmt.Errorf("f0: KMV holds %d values but k = %d", len(vals), k)
	}
	slices.Sort(vals)
	slices.Reverse(vals)
	for i, v := range vals {
		if v >= hash.Prime || (i > 0 && v == vals[i-1]) {
			return fmt.Errorf("f0: KMV value %d is repeated or not a hash value", v)
		}
	}
	*s = KMV{k: k, h: hash.PolyFromCoeffs(coeffs), vals: vals}
	return nil
}
