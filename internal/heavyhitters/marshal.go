package heavyhitters

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/fp"
)

const (
	csFormatV1 = 1
	csFormatV2 = 2 // adds per-candidate retention tallies after the id list
)

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
	cands := make([]uint64, 0, len(cs.cands))
	for it := range cs.cands {
		cands = append(cands, it)
	}
	// Canonical order: the candidate pool is a map, and ranging over it
	// would make two encodings of identical state differ byte-for-byte.
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	w.U64s(cands)
	weights := make([]int64, len(cands))
	for i, it := range cands {
		weights[i] = cs.cands[it]
	}
	w.I64s(weights)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes state produced by MarshalBinary, replacing cs.
func (cs *CountSketch) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	version := r.U8()
	if version != csFormatV1 && version != csFormatV2 && r.Err() == nil {
		return fmt.Errorf("heavyhitters: unsupported CountSketch format version %d", version)
	}
	dims := fp.F2Sizing{Rows: int(r.U64()), Width: int(r.U64())}
	candCap := int(r.U64())
	if r.Err() == nil && candCap < 0 {
		return fmt.Errorf("heavyhitters: invalid CountSketch candidate cap %d", candCap)
	}
	kernel, err := fp.ReadRows(&r, dims, (*codec.Reader).I64s)
	if err != nil {
		return err
	}
	cands := r.U64s()
	var weights []int64
	if version >= csFormatV2 {
		weights = r.I64s()
		if r.Err() == nil && len(weights) != len(cands) {
			return fmt.Errorf("heavyhitters: %d candidate weights for %d candidates", len(weights), len(cands))
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	cs.kernel, cs.candCap = kernel, candCap
	cs.cands = make(map[uint64]int64, len(cands))
	for i, it := range cands {
		// V1 snapshots carry no tallies; re-admit at zero and let future
		// updates rebuild them.
		var wt int64
		if weights != nil {
			wt = weights[i]
		}
		cs.cands[it] = wt
	}
	return nil
}
