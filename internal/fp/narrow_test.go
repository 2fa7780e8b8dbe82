package fp

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/hash"
	"repro/internal/order"
	"repro/internal/sketch"
)

// wideF2 is the kernel as it stood before counters went narrow: a [][]int64
// fed one update at a time. The narrow sketch owes it every observable —
// estimate, point reads, both encodings — and is wide exactly when left32.
type wideF2 struct {
	w      int
	hs     []hash.Poly
	c      [][]int64
	sumSq  []float64
	left32 bool // some counter has held a value outside int32
}

func newWideF2(s F2Sizing, rng *rand.Rand) *wideF2 {
	f := &wideF2{w: s.Width, sumSq: make([]float64, s.Rows)}
	for r := 0; r < s.Rows; r++ {
		f.hs = append(f.hs, hash.NewPoly(4, rng))
		f.c = append(f.c, make([]int64, s.Width))
	}
	return f
}

func (f *wideF2) Update(item uint64, delta int64) {
	for r, row := range f.c {
		sign, b := f.hs[r].SignBucket(item, f.w)
		d, old := sign*delta, row[b]
		row[b] = old + d
		f.left32 = f.left32 || row[b] != int64(int32(row[b]))
		f.sumSq[r] += float64(d) * (2*float64(old) + float64(d))
	}
}

// encode writes the f2 format (floats true) or the countsketch row format.
func (f *wideF2) encode(floats bool) []byte {
	var w codec.Writer
	if floats {
		w.U8(f2FormatV1)
		w.U64(uint64(len(f.c)))
		w.U64(uint64(f.w))
	}
	for r, row := range f.c {
		w.U64s(f.hs[r].Coeffs())
		if !floats {
			w.I64s(row)
			continue
		}
		w.U64(uint64(len(row)))
		for _, v := range row {
			w.F64(float64(v))
		}
	}
	return w.Bytes()
}

// mustMatchWide compares every observable of got with the reference.
func mustMatchWide(t *testing.T, got *F2Sketch, ref *wideF2, items uint64) {
	t.Helper()
	if e, want := got.Estimate(), order.UpperMedian(slices.Clone(ref.sumSq)); math.Float64bits(e) != math.Float64bits(want) {
		t.Fatalf("estimate %v, all-int64 reference %v", e, want)
	}
	for item := uint64(0); item < items; item++ {
		for r, v := range got.AppendSigned(nil, item) {
			sign, b := ref.hs[r].SignBucket(item, ref.w)
			if want := float64(sign * ref.c[r][b]); v != want {
				t.Fatalf("item %d row %d: signed counter %v, reference %v", item, r, v, want)
			}
		}
	}
	if enc, _ := got.MarshalBinary(); !bytes.Equal(enc, ref.encode(true)) {
		t.Fatal("f2 encoding differs from the all-int64 reference's")
	}
	var w codec.Writer
	got.AppendRows(&w, (*codec.Writer).I64s)
	if !bytes.Equal(w.Bytes(), ref.encode(false)) {
		t.Fatal("countsketch row encoding differs from the all-int64 reference's")
	}
	if wide := got.c64 != nil; wide != ref.left32 || (got.c32 != nil) == wide {
		t.Fatalf("wide = %v (c32 set: %v) with a counter outside int32: %v", wide, got.c32 != nil, ref.left32)
	}
	if want := (4+4*btoi(ref.left32))*len(ref.c)*ref.w + 8*len(ref.c) + 32*len(ref.c); got.SpaceBytes() != want {
		t.Fatalf("SpaceBytes %d, want %d", got.SpaceBytes(), want)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fuzzDeltaBases clusters deltas where a counter leaves int32 and where it
// wraps int64; each is offset by a signed byte.
var fuzzDeltaBases = []int64{0, 0, 1 << 31, -(1 << 31), 1 << 62, -(1 << 62), 1<<31 - 64, math.MinInt64}

// FuzzF2NarrowMatchesWide: three bytes an update — item and cut bits, delta
// cluster, delta offset — cut into random batches (a lone update may take
// Update instead). After every step the sketch equals the reference and is
// wide exactly when a counter has left int32.
func FuzzF2NarrowMatchesWide(f *testing.F) {
	f.Add([]byte{0x81, 0, 1, 0x82, 2, 0, 0xc1, 3, 0xff, 0x01, 2, 5, 0x81, 3, 5})
	f.Add([]byte{0x03, 6, 60, 0x03, 0, 10, 0x83, 0, 10, 0xc3, 3, 0})
	f.Add([]byte{0xc0, 4, 0, 0xc0, 4, 0, 0xc0, 7, 0, 0x80, 5, 1})
	long := make([]byte, 0, 3*300) // crosses two block boundaries, overflowing inside the second
	for i := 0; i < 300; i++ {
		long = append(long, byte(i%16), byte(2*btoi(i == 200)), 1)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		dims := F2Sizing{Rows: 3, Width: 4}
		got, ref := NewF2(dims, rand.New(rand.NewSource(9))), newWideF2(dims, rand.New(rand.NewSource(9)))
		var batch []sketch.Update
		for len(data) >= 3 {
			op := data[:3]
			data = data[3:]
			batch = append(batch, sketch.Update{
				Item:  uint64(op[0] & 15),
				Delta: fuzzDeltaBases[int(op[1])%len(fuzzDeltaBases)] + int64(int8(op[2])),
			})
			if op[0]&0x80 == 0 && len(data) >= 3 {
				continue
			}
			if len(batch) == 1 && op[0]&0x40 != 0 {
				got.Update(batch[0].Item, batch[0].Delta)
			} else {
				got.UpdateBatch(batch)
			}
			for _, u := range batch {
				ref.Update(u.Item, u.Delta)
			}
			batch = batch[:0]
			mustMatchWide(t, got, ref, 16)
		}
	})
}

// TestF2MergeAndDecodeWiden: a merge or a decode lands on the integers of
// the concatenated stream whichever side is wide, and the result is wide
// exactly when a side was or a sum needs it.
func TestF2MergeAndDecodeWiden(t *testing.T) {
	const big = 1<<31 - 1
	for _, tc := range []struct {
		name string
		a, b []sketch.Update
	}{
		{"narrow+narrow", []sketch.Update{{Item: 1, Delta: 5}}, []sketch.Update{{Item: 1, Delta: -7}, {Item: 2, Delta: 3}}},
		{"sum overflows part-way", []sketch.Update{{Item: 0, Delta: 9}, {Item: 3, Delta: big}}, []sketch.Update{{Item: 0, Delta: 1}, {Item: 3, Delta: big}}},
		{"narrow+wide", []sketch.Update{{Item: 1, Delta: 5}}, []sketch.Update{{Item: 1, Delta: 1 << 40}}},
		{"wide+narrow", []sketch.Update{{Item: 1, Delta: -(1 << 40)}}, []sketch.Update{{Item: 1, Delta: 5}, {Item: 2, Delta: big}}},
		{"wide+wide", []sketch.Update{{Item: 1, Delta: 1 << 40}}, []sketch.Update{{Item: 2, Delta: 1 << 50}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dims := F2Sizing{Rows: 3, Width: 4}
			a, ref := NewF2(dims, rand.New(rand.NewSource(4))), newWideF2(dims, rand.New(rand.NewSource(4)))
			b := a.Fresh()
			a.UpdateBatch(tc.a)
			b.UpdateBatch(tc.b)
			wasWide := a.c64 != nil || b.c64 != nil
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			for _, u := range append(slices.Clone(tc.a), tc.b...) {
				ref.Update(u.Item, u.Delta)
			}
			ref.left32 = ref.left32 || wasWide // a side that widened stays wide through the merge
			for r, row := range ref.c {        // Merge resummates: Σ c² in bucket order
				ref.sumSq[r] = 0
				for _, v := range row {
					ref.sumSq[r] += float64(v) * float64(v)
				}
			}
			mustMatchWide(t, a, ref, 4)

			enc, _ := a.MarshalBinary()
			var dec F2Sketch
			if err := dec.UnmarshalBinary(enc); err != nil {
				t.Fatal(err)
			}
			ref.left32 = false
			for _, row := range ref.c {
				for _, v := range row {
					ref.left32 = ref.left32 || v != int64(int32(v))
				}
			}
			mustMatchWide(t, &dec, ref, 4) // a decode is wide only if a counter it read is
		})
	}
}

// TestResetEqualsNew: after any traffic, widening included, Reset(rng)
// leaves the bytes — and the narrow footprint — of NewF2 on the same rng,
// and does not disturb a Fresh copy sharing the old polynomials.
func TestResetEqualsNew(t *testing.T) {
	dims := F2Sizing{Rows: 5, Width: 16}
	for _, delta := range []int64{1, -3, 1 << 31, -(1 << 62)} {
		f := NewF2(dims, rand.New(rand.NewSource(1)))
		shard := f.Fresh()
		shard.Update(3, 2)
		shardBytes, _ := shard.MarshalBinary()
		for i := uint64(0); i < 500; i++ {
			f.Update(i%37, delta)
		}
		f.UpdateBatch([]sketch.Update{{Item: 1, Delta: delta}, {Item: 2, Delta: 7}})
		f.Reset(rand.New(rand.NewSource(77)))
		want := NewF2(dims, rand.New(rand.NewSource(77)))
		got, _ := f.MarshalBinary()
		fresh, _ := want.MarshalBinary()
		if !bytes.Equal(got, fresh) || f.SpaceBytes() != want.SpaceBytes() || f.c64 != nil || f.Estimate() != 0 {
			t.Errorf("delta %d: Reset left a sketch (%d bytes resident, estimate %v) that is not NewF2's (%d bytes)",
				delta, f.SpaceBytes(), f.Estimate(), want.SpaceBytes())
		}
		f.Update(9, 4)
		want.Update(9, 4)
		if f.Estimate() != want.Estimate() {
			t.Errorf("delta %d: a reset sketch estimates %v where a new one estimates %v", delta, f.Estimate(), want.Estimate())
		}
		if again, _ := shard.MarshalBinary(); !bytes.Equal(again, shardBytes) {
			t.Errorf("delta %d: Reset changed a Fresh copy of the sketch", delta)
		}
	}
}

// hostileDims is a 30-byte f2 body whose header claims 2²⁰ rows of 2⁴⁰
// counters: nothing may be sized by the header alone.
var hostileDims = func() []byte {
	var w codec.Writer
	w.U8(f2FormatV1)
	w.U64(1 << 20)
	w.U64(1 << 40)
	return append(w.Bytes(), make([]byte, 13)...)
}()

func TestReadRowsHoldsDimensionsAgainstInput(t *testing.T) {
	var s F2Sketch
	if err := s.UnmarshalBinary(hostileDims); err == nil {
		t.Fatal("a 30-byte body claiming 2^20 x 2^40 counters decoded")
	}
	// One row short of what the header claims: refused before the matrix is made.
	full, _ := NewF2(F2Sizing{Rows: 4, Width: 8}, rand.New(rand.NewSource(1))).MarshalBinary()
	if err := s.UnmarshalBinary(full[:len(full)-(8*8+16+32)]); err == nil {
		t.Error("a body one row short decoded")
	}
}
