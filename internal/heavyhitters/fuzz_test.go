package heavyhitters

import (
	"math/rand"
	"testing"
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
	f.Fuzz(func(t *testing.T, b []byte) {
		var s CountSketch
		if err := s.UnmarshalBinary(b); err != nil {
			return
		}
		s.Update(42, 1)
		_ = s.Query(42)
		_ = s.Estimate()
		_ = s.HeavyHitters(1)
	})
}
