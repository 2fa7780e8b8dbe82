package heavyhitters

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/fp"
)

// csFormatV2 is the one CountSketch encoding: retention tallies follow the
// candidate ids. Version 1, without tallies, predates the V2 snapshot
// envelope that every stored or shipped state now travels in, so no
// decoder input can be one, and it is refused as unsupported.
const csFormatV2 = 2

// MarshalBinary encodes the sketch state (hash functions, counters, and
// the candidate pool with its retention tallies, so heavy hitters — and
// their pruning behaviour — survive the round trip).
func (cs *CountSketch) MarshalBinary() ([]byte, error) {
	var w codec.Writer
	w.U8(csFormatV2)
	dims := cs.kernel.Dims()
	w.U64(uint64(dims.Rows))
	w.U64(uint64(dims.Width))
	w.U64(uint64(cs.candCap))
	cs.kernel.AppendRows(&w, (*codec.Writer).I64s)
	// Canonical order, by id: the pool keeps arrival order, so two pools
	// holding one state may differ in it.
	pool := slices.SortedFunc(slices.Values(cs.pool.entries), func(a, b candEntry) int { return cmp.Compare(a.item, b.item) })
	cands, weights := make([]uint64, len(pool)), make([]int64, len(pool))
	for i, e := range pool {
		cands[i], weights[i] = e.item, e.weight
	}
	w.U64s(cands)
	w.I64s(weights)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes state produced by MarshalBinary, replacing cs.
func (cs *CountSketch) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	version := r.U8()
	if version != csFormatV2 && r.Err() == nil {
		return fmt.Errorf("heavyhitters: unsupported CountSketch format version %d", version)
	}
	dims := fp.F2Sizing{Rows: int(r.U64()), Width: int(r.U64())}
	candCap := int(r.U64())
	if r.Err() == nil && candCap != 4*dims.Width {
		return fmt.Errorf("heavyhitters: candidate cap %d for width %d, want 4·width", candCap, dims.Width)
	}
	kernel, err := fp.ReadRows(&r, dims, (*codec.Reader).I64s)
	if err != nil {
		return err
	}
	cands := r.U64s()
	weights := r.I64s()
	if r.Err() == nil && len(weights) != len(cands) {
		return fmt.Errorf("heavyhitters: %d candidate weights for %d candidates", len(weights), len(cands))
	}
	// The pool is reserved at its cap, so both are checked before it is.
	if len(cands) > 2*candCap {
		return fmt.Errorf("heavyhitters: %d candidates, more than twice the cap %d", len(cands), candCap)
	}
	for i := 1; i < len(cands); i++ {
		if cands[i] <= cands[i-1] {
			return fmt.Errorf("heavyhitters: candidate %d out of order", i)
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	cs.kernel, cs.candCap, cs.pool = kernel, candCap, newCandPool(candCap)
	for i, it := range cands {
		cs.pool.add(it, weights[i])
	}
	return nil
}
