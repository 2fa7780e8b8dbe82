package fp

import (
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/hash"
)

const f2FormatV1 = 1

// MarshalBinary encodes the sketch state (hash functions + counters).
// Format V1 predates integer counters and carries them as float64s.
func (f *F2Sketch) MarshalBinary() ([]byte, error) {
	var w codec.Writer
	w.U8(f2FormatV1)
	w.U64(uint64(f.rows))
	w.U64(uint64(f.w))
	f.AppendRows(&w, func(w *codec.Writer, row []int64) {
		w.U64(uint64(len(row)))
		for _, v := range row {
			w.F64(float64(v))
		}
	})
	return w.Bytes(), nil
}

// UnmarshalBinary decodes state produced by MarshalBinary, replacing f.
func (f *F2Sketch) UnmarshalBinary(data []byte) error {
	r := codec.NewReader(data)
	if v := r.U8(); v != f2FormatV1 && r.Err() == nil {
		return fmt.Errorf("fp: unsupported F2Sketch format version %d", v)
	}
	dims := F2Sizing{Rows: int(r.U64()), Width: int(r.U64())}
	decoded, err := ReadRows(&r, dims, floatCounters)
	if err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return err
	}
	*f = *decoded
	return nil
}

// floatCounters reads one V1 row: float64 words, each of which must be an
// integer an int64 holds. Anything else — NaN and ±Inf included — never
// came from a stream, and merged in it would poison the sketch for good
// (NaN + x stays NaN).
func floatCounters(r *codec.Reader) []int64 {
	row := r.I64s() // the raw words, converted in place
	for i, bits := range row {
		v := math.Float64frombits(uint64(bits))
		if !(v >= -(1<<63) && v < 1<<63 && v == math.Trunc(v)) {
			r.Failf("f2 counter %v is not an integer an int64 holds", v)
			return nil
		}
		row[i] = int64(v)
	}
	return row
}

// AppendRows writes every row — its hash coefficients, then its counters
// in the caller's encoding: the f2 format's float64s, the countsketch
// format's int64s.
func (f *F2Sketch) AppendRows(w *codec.Writer, counters func(*codec.Writer, []int64)) {
	for r := 0; r < f.rows; r++ {
		w.U64s(f.hs[r].Coeffs())
		counters(w, f.c[r])
	}
}

// ReadRows decodes what AppendRows wrote for a sketch of the given
// dimensions and rebuilds the row aggregates.
func ReadRows(r *codec.Reader, dims F2Sizing, counters func(*codec.Reader) []int64) (*F2Sketch, error) {
	if r.Err() != nil {
		return nil, r.Err()
	}
	if dims.Rows < 1 || dims.Rows > 1<<20 || dims.Width < 1 {
		return nil, fmt.Errorf("fp: invalid sketch dimensions %dx%d", dims.Rows, dims.Width)
	}
	f := &F2Sketch{rows: dims.Rows, w: dims.Width, sumSq: make([]float64, dims.Rows)}
	for i := 0; i < dims.Rows; i++ {
		f.hs = append(f.hs, hash.PolyFromCoeffs(r.U64s()))
		row := counters(r)
		if r.Err() != nil {
			return nil, r.Err()
		}
		if len(row) != dims.Width {
			return nil, fmt.Errorf("fp: row %d has %d counters, want %d", i, len(row), dims.Width)
		}
		f.c = append(f.c, row)
	}
	f.Resummate()
	return f, nil
}
