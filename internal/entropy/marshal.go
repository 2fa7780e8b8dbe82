package entropy

import (
	"fmt"
	"math"

	"repro/internal/codec"
)

const ccFormatV1 = 1

// MarshalBinary encodes the sketch state (dimensions, variate salts,
// counters, and the exact F1 counter).
func (cc *CC) MarshalBinary() ([]byte, error) {
	var w codec.Writer
	w.U8(ccFormatV1)
	w.U64(uint64(cc.groups))
	w.U64(uint64(cc.per))
	w.U64s(cc.salts)
	w.F64s(cc.y)
	w.I64(cc.f1)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes state produced by MarshalBinary, replacing cc.
func (cc *CC) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	if v := r.U8(); v != ccFormatV1 && r.Err() == nil {
		return fmt.Errorf("entropy: unsupported CC format version %d", v)
	}
	groups := int(r.U64())
	per := int(r.U64())
	salts := r.U64s()
	y := r.F64s()
	f1 := r.I64()
	if err := r.Done(); err != nil {
		return err
	}
	if groups < 1 || per < 1 || groups > 1<<20 || per > 1<<30 {
		return fmt.Errorf("entropy: invalid CC dimensions %d×%d", groups, per)
	}
	if len(salts) != groups*per || len(y) != groups*per {
		return fmt.Errorf("entropy: inconsistent CC state (%d×%d dims, %d salts, %d counters)",
			groups, per, len(salts), len(y))
	}
	for j, v := range y {
		// A stream only ever adds finite products; a NaN or ±Inf merged in
		// would stay for good (NaN + x is NaN, Inf − Inf is NaN).
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("entropy: CC counter %d is %v", j, v)
		}
	}
	cc.groups, cc.per, cc.salts, cc.y, cc.f1 = groups, per, salts, y, f1
	return nil
}
