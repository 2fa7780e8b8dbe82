package cascaded

import (
	"math/rand"
	"testing"

	"repro/internal/robust"
)

func BenchmarkExactApply(b *testing.B) {
	e := NewExact(1, 2)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Apply(Update{Row: rng.Uint64() % 64, Col: rng.Uint64() % 256, Delta: 1})
	}
}

func BenchmarkRobustCascadeUpdate(b *testing.B) {
	rob, err := robust.Policy{Kind: robust.Ring}.Wrap(0.3, 0.05, 64*256, 1, Problem(1, 2, 256))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rob.Update(rng.Uint64()%(64*256), 1)
	}
}

func BenchmarkKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Key(uint64(i), uint64(i>>8))
	}
}
