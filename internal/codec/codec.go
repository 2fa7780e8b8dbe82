// Package codec owns how this repository reads and writes binary state:
// little-endian words, varints and length-prefixed byte strings. The
// sketches' MarshalBinary/UnmarshalBinary implementations, the snapshot
// envelope, the WAL's checkpoint files and record payloads, and every
// internal/wire frame decoder parse through Reader, so "how is a word read
// safely from a buffer an adversary chose" is decided once, here.
//
// Both Writer and Reader are sticky-error: after the first failure every
// operation is a no-op returning zero values and Err reports the cause, so
// a decoder reads straight through and checks once, with Done.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer accumulates an encoded buffer.
type Writer struct {
	buf []byte
}

// U8 appends a byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U64 appends a fixed 64-bit word.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a signed 64-bit word.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// U64s appends a length-prefixed slice.
func (w *Writer) U64s(vs []uint64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// I64s appends a length-prefixed slice.
func (w *Writer) I64s(vs []int64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.I64(v)
	}
}

// F64s appends a length-prefixed slice.
func (w *Writer) F64s(vs []float64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.F64(v)
	}
}

// U8s appends a length-prefixed byte slice.
func (w *Writer) U8s(vs []uint8) {
	w.U64(uint64(len(vs)))
	w.buf = append(w.buf, vs...)
}

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Reader is a bounds-checked cursor over an untrusted buffer: every read
// checks the bytes are there, and every declared length or count is
// checked against the input that remains before anything is allocated for
// it.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps an encoded buffer. The Reader is returned by value and
// is meant to stay in a local variable of the decoding function: one
// handed back from a helper by pointer escapes to the heap, which costs
// the frame decoders on the ingest path their zero allocations.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many bytes are still unread, for a decoder that
// must hold a product of declared dimensions against them.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Failf records damage the caller found in values it read — an unknown
// kind byte, a flag bit no writer sets. Like a failed read it is sticky,
// and the first failure wins.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("codec: "+format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b)-r.off {
		r.Failf("truncated input at offset %d (need %d of %d bytes)", r.off, n, len(r.b))
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U64 reads a 64-bit word.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed 64-bit word.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Failf("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint: a uvarint with the sign folded into the
// low bit (zigzag), so small magnitudes of either sign stay short.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// fits validates a declared element count against the remaining input,
// which must hold at least elemSize bytes per element.
func (r *Reader) fits(n uint64, elemSize int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off)/uint64(elemSize) {
		r.Failf("declared count %d exceeds remaining input (%d bytes, %d per element)", n, len(r.b)-r.off, elemSize)
		return 0
	}
	return int(n)
}

// Count reads a uvarint element count and rejects one the remaining input
// cannot hold at minElemBytes per element, so the caller may allocate for
// the count it gets back.
func (r *Reader) Count(minElemBytes int) int { return r.fits(r.Uvarint(), minElemBytes) }

// View reads a uvarint-length-prefixed byte string and returns it as a
// slice of the input, not a copy: convert it to a string, or copy it,
// before the input buffer is reused.
func (r *Reader) View() []byte { return r.take(r.Count(1)) }

// Rest consumes and returns every unread byte, as a slice of the input.
func (r *Reader) Rest() []byte { return r.take(len(r.b) - r.off) }

// U64s reads a length-prefixed slice.
func (r *Reader) U64s() []uint64 {
	n := r.fits(r.U64(), 8)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// I64s reads a length-prefixed slice.
func (r *Reader) I64s() []int64 {
	n := r.fits(r.U64(), 8)
	out := make([]int64, n)
	for i := range out {
		out[i] = r.I64()
	}
	return out
}

// F64s reads a length-prefixed slice.
func (r *Reader) F64s() []float64 {
	n := r.fits(r.U64(), 8)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// U8s reads a length-prefixed byte slice.
func (r *Reader) U8s() []uint8 {
	n := r.fits(r.U64(), 1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]uint8(nil), b...)
}

// Done reports an error if unread bytes remain.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("codec: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}
