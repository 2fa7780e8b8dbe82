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
	var wide []int64 // a narrow row, widened for the caller
	if f.c64 == nil {
		wide = make([]int64, f.w)
	}
	for r := 0; r < f.rows; r++ {
		w.U64s(f.hs[r].Coeffs())
		if f.c64 != nil {
			counters(w, f.c64[r*f.w:(r+1)*f.w])
			continue
		}
		for i, v := range f.c32[r*f.w : (r+1)*f.w] {
			wide[i] = int64(v)
		}
		counters(w, wide)
	}
}

// ReadRows decodes what AppendRows wrote for a sketch of the given
// dimensions and rebuilds the row aggregates; the sketch comes back narrow
// unless a decoded counter needs 64 bits. counters must consume at least 8
// bytes of input per counter it returns, as both formats' fixed words do:
// the header's rows × width is held against the bytes that remain before
// the one flat matrix is allocated from it, so a short body cannot claim a
// large sketch.
func ReadRows(r *codec.Reader, dims F2Sizing, counters func(*codec.Reader) []int64) (*F2Sketch, error) {
	if r.Err() != nil {
		return nil, r.Err()
	}
	if dims.Rows < 1 || dims.Rows > 1<<20 || dims.Width < 1 {
		return nil, fmt.Errorf("fp: invalid sketch dimensions %dx%d", dims.Rows, dims.Width)
	}
	// A row is two length words, its coefficients and 8 bytes a counter.
	if left := r.Remaining(); dims.Width > left/8 || dims.Rows > left/(8*dims.Width+16) {
		return nil, fmt.Errorf("fp: %d bytes cannot hold a %dx%d sketch", left, dims.Rows, dims.Width)
	}
	f := &F2Sketch{
		rows: dims.Rows, w: dims.Width,
		c32:   make([]int32, dims.Rows*dims.Width),
		sumSq: make([]float64, dims.Rows),
	}
	for i := 0; i < dims.Rows; i++ {
		f.hs = append(f.hs, hash.PolyFromCoeffs(r.U64s()))
		row := counters(r)
		if r.Err() != nil {
			return nil, r.Err()
		}
		if len(row) != dims.Width {
			return nil, fmt.Errorf("fp: row %d has %d counters, want %d", i, len(row), dims.Width)
		}
		lo := i * dims.Width
		if f.c64 == nil && addCounters(f.c32[lo:], row) < len(row) {
			f.widen() // the row is partly in place; it is copied whole below
		}
		if f.c64 != nil {
			copy(f.c64[lo:], row)
		}
	}
	f.Resummate()
	return f, nil
}
