package fp

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/hash"
)

const f2FormatV1 = 1

// MarshalBinary encodes the sketch state (hash functions + counters).
func (f *F2Sketch) MarshalBinary() ([]byte, error) {
	var w codec.Writer
	w.U8(f2FormatV1)
	w.U64(uint64(f.rows))
	w.U64(uint64(f.w))
	for r := 0; r < f.rows; r++ {
		w.U64s(f.hs[r].Coeffs())
		w.F64s(f.c[r])
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes state produced by MarshalBinary, replacing f.
func (f *F2Sketch) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	if v := r.U8(); v != f2FormatV1 && r.Err() == nil {
		return fmt.Errorf("fp: unsupported F2Sketch format version %d", v)
	}
	rows := int(r.U64())
	w := int(r.U64())
	if r.Err() != nil {
		return r.Err()
	}
	if rows < 1 || rows > 1<<20 || w < 1 {
		return fmt.Errorf("fp: invalid F2Sketch dimensions %dx%d", rows, w)
	}
	hs := make([]hash.Poly, 0, rows)
	c := make([][]float64, 0, rows)
	for i := 0; i < rows; i++ {
		hs = append(hs, hash.PolyFromCoeffs(r.U64s()))
		row := r.F64s()
		if r.Err() == nil && len(row) != w {
			return fmt.Errorf("fp: row %d has %d counters, want %d", i, len(row), w)
		}
		c = append(c, row)
	}
	if err := r.Done(); err != nil {
		return err
	}
	f.rows, f.w, f.hs, f.c = rows, w, hs, c
	f.sumSq = make([]float64, rows)
	f.scratch = nil
	f.Resummate()
	return nil
}
