package dist

import (
	"math"
	"math/rand"
	"testing"
)

// randDrawCounts straddle the switch to the real source: draw 273 is the
// last a lazy source computes, 274 the first the real one answers.
var randDrawCounts = []int{1, 2, 52, 272, 273, 274, 1500}

// checkRandMatches draws n values from Rand(seed) and from
// rand.New(rand.NewSource(seed)) through one method and reports the first
// that differs.
func checkRandMatches(t *testing.T, seed int64, n int, method string) {
	t.Helper()
	got, want := Rand(seed), rand.New(rand.NewSource(seed))
	for j := 1; j <= n; j++ {
		var g, w uint64
		switch method {
		case "Uint64":
			g, w = got.Uint64(), want.Uint64()
		case "Int63":
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case "Intn":
			g, w = uint64(got.Intn(1000003)), uint64(want.Intn(1000003))
		case "Float64":
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case "NormFloat64":
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		}
		if g != w {
			t.Fatalf("seed %d: %s draw %d = %#x, math/rand %#x", seed, method, j, g, w)
		}
	}
}

// TestRandMatchesMathRand holds Rand(seed) to math/rand's sequence bit for
// bit: the seed reductions (0, negatives, multiples of 2³¹−1, the extremes
// of int64, and 89482311, which 0 maps to), the lazy draws, the hand-over
// to the real source and long runs after it, through every method the
// sketches draw with.
func TestRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, lcgMod, -lcgMod, 2 * lcgMod, math.MinInt64, math.MaxInt64, 89482311}
	r := rand.New(rand.NewSource(20261016))
	for range 2000 {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	for _, seed := range seeds {
		for _, n := range randDrawCounts {
			for _, m := range []string{"Uint64", "Int63", "Intn", "Float64", "NormFloat64"} {
				checkRandMatches(t, seed, n, m)
			}
		}
	}
}

// TestRandReseed holds Seed on a Rand that has handed over to the real
// source to restart at the new seed's first lazy draw.
func TestRandReseed(t *testing.T) {
	got, want := Rand(5), rand.New(rand.NewSource(5))
	for range 300 {
		got.Uint64()
		want.Uint64()
	}
	got.Seed(-77)
	want.Seed(-77)
	for j := 1; j <= 400; j++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("after Seed(-77): draw %d = %#x, math/rand %#x", j, g, w)
		}
	}
}

func FuzzRandMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(1))
	f.Add(int64(-1), uint16(273))
	f.Add(int64(math.MinInt64), uint16(274))
	f.Add(int64(89482311), uint16(1500))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkRandMatches(t, seed, int(draws%2048), "Uint64")
		checkRandMatches(t, seed, int(draws%2048), "Float64")
	})
}

// BenchmarkRandSeed prices what a KMV copy's construction draws: a
// generator and two 63-bit words.
func BenchmarkRandSeed(b *testing.B) {
	b.Run("math/rand", func(b *testing.B) {
		b.ReportAllocs()
		var sink int64
		for i := 0; b.Loop(); i++ {
			r := rand.New(rand.NewSource(int64(i)))
			sink += r.Int63() ^ r.Int63()
		}
		benchSink = sink
	})
	b.Run("dist.Rand", func(b *testing.B) {
		b.ReportAllocs()
		var sink int64
		for i := 0; b.Loop(); i++ {
			r := Rand(int64(i))
			sink += r.Int63() ^ r.Int63()
		}
		benchSink = sink
	})
}

var benchSink int64
