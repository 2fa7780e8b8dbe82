package dist

import (
	"math/rand"
	"unsafe"
)

// Rand returns a generator whose every draw equals those of
// rand.New(rand.NewSource(seed)), at a cost that follows the draws made.
// Go's source seeds 607 words before its first draw, yet each of its first
// 273 draws is the sum of two seeded words, and each word is a jump-ahead
// of the seeding LCG. A sketch that draws a few hash coefficients per copy
// pays for those words alone; the 274th draw builds the real source.
func Rand(seed int64) *rand.Rand {
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}

// RandBytes is what a Rand keeps resident once its 274th draw has built the
// real source: the rand.Rand, its lazy source, and the source's 607 words
// and two indices. A Rand kept to draw from for good (robust.HeavyHitters')
// is past that after its first few sketches, so it is charged this whole.
const RandBytes = int(unsafe.Sizeof(rand.Rand{})+unsafe.Sizeof(lazySource{})) + 8*rngLen + 16

const (
	rngLen = 607       // words in Go's additive lagged Fibonacci state
	rngTap = 273       // draws before one reads a word a draw wrote
	lcgMod = 1<<31 - 1 // the seeding LCG: x ← 48271·x mod 2³¹−1
	lcgMul = 48271
)

// powA[i] = 48271^(21+3i) mod 2³¹−1 takes a seed to the first LCG step of
// state word i; cooked[i] is the constant Go XORs into that word.
var powA, cooked = seedTables()

// seedTables derives cooked from seed 1's first 607 draws. Draw j adds word
// 607−j into word 334−j (mod 607) and so writes each word once; undoing the
// draws last to first recovers the seeded state V, and V XOR seed 1's LCG
// words is cooked.
func seedTables() (pow [rngLen]uint64, cook [rngLen]int64) {
	p := uint64(1)
	for i := -7; i < rngLen; i++ {
		if i >= 0 {
			pow[i] = p
		}
		p = p * lcgMul % lcgMod * lcgMul % lcgMod * lcgMul % lcgMod
	}
	src := rand.NewSource(1).(rand.Source64)
	var v [rngLen]int64
	for j := 1; j <= rngLen; j++ {
		v[(rngLen+334-j)%rngLen] = int64(src.Uint64())
	}
	for j := rngLen; j >= 1; j-- {
		v[(rngLen+334-j)%rngLen] -= v[rngLen-j]
	}
	for i := range cook {
		cook[i] = v[i] ^ lcgWords(1, pow[i])
	}
	return pow, cook
}

// lcgWords packs x₁<<40 ^ x₂<<20 ^ x₃, where x₁ = seed·pow mod 2³¹−1 and
// x₂, x₃ are the LCG's next two steps.
func lcgWords(seed, pow uint64) int64 {
	x1 := seed * pow % lcgMod
	x2 := x1 * lcgMul % lcgMod
	x3 := x2 * lcgMul % lcgMod
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3)
}

// lazySource is rand.NewSource(seed) with its state computed per draw.
type lazySource struct {
	seed uint64        // reduced as rand.NewSource reduces it
	n    int           // draws made
	full rand.Source64 // the real source, from draw rngTap+1 on
}

func (s *lazySource) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = lazySource{seed: uint64(seed)}
}

func (s *lazySource) Uint64() uint64 {
	if s.n++; s.n <= rngTap {
		return uint64(s.word(334-s.n) + s.word(rngLen-s.n))
	}
	if s.full == nil {
		s.full = rand.NewSource(int64(s.seed)).(rand.Source64)
		for range rngTap {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// word is state word i as rand.NewSource(seed) seeds it.
func (s *lazySource) word(i int) int64 { return lcgWords(s.seed, powA[i]) ^ cooked[i] }
