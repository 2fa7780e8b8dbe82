package heavyhitters

import (
	"math/rand"
	"testing"

	"repro/internal/sketch"
)

// FuzzCountSketchUnmarshal: arbitrary bytes must never panic; decoded
// sketches must be usable.
func FuzzCountSketchUnmarshal(f *testing.F) {
	seed := NewCountSketch(Sizing{Rows: 3, Width: 8}, rand.New(rand.NewSource(1)))
	seed.Update(5, 10)
	data, _ := seed.MarshalBinary()
	f.Add(data)
	f.Add([]byte{})
	f.Add([]byte{1, 255, 255, 255, 255, 255, 255, 255, 255})
	// 30 bytes claiming 2²⁰ rows of 2⁴⁰ counters: the kernel's one flat
	// matrix must not be sized by the header alone.
	f.Add(append([]byte{csFormatV2, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 4}, make([]byte, 12)...))
	// Pools the decoder refuses before it reserves one (TestUnmarshalRefusesBadPools).
	for _, bad := range badPools() {
		f.Add(bad)
	}
	batch := make([]sketch.Update, 300) // through the shared block kernel too
	for i := range batch {
		batch[i] = sketch.Update{Item: uint64(i % 97), Delta: int64(i%5) - 2}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var s CountSketch
		if err := s.UnmarshalBinary(b); err != nil {
			return
		}
		s.Update(42, 1)
		s.UpdateBatch(batch)
		_ = s.Query(42)
		_ = s.Estimate()
		_ = s.HeavyHitters(1)
	})
}
