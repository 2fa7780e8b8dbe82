package hash

import (
	"math/bits"
	"math/rand"
	"slices"
)

// Poly is a k-wise independent hash family member: a uniformly random
// polynomial of degree k−1 over GF(2^61 − 1), evaluated by Horner's rule
// (Eval) or, a cubic over a block of items, in power form (SignBuckets).
// For distinct inputs x_1, …, x_k the values h(x_1), …, h(x_k) are fully
// independent and uniform over [0, Prime). Degree-1 polynomials give the
// classic pairwise family, degree-3 the 4-wise family required by AMS, and
// degree Θ(log log n + log 1/δ) the d-wise family of the paper's fast F0
// algorithm (Lemma 5.2).
type Poly struct {
	coeffs []uint64 // coeffs[0] is the constant term
}

// NewPoly draws a uniformly random member of the k-wise independent
// polynomial family using rng. k must be >= 1.
func NewPoly(k int, rng *rand.Rand) Poly {
	if k < 1 {
		panic("hash: k-wise family needs k >= 1")
	}
	c := make([]uint64, k)
	for i := range c {
		c[i] = rng.Uint64() % Prime
	}
	// Force a non-zero leading coefficient so the polynomial has true
	// degree k−1 (required for the multipoint division-based evaluation,
	// and harmless for independence: the family conditioned on a non-zero
	// leading coefficient is still k-wise independent on k distinct points
	// up to an O(1/Prime) statistical distance).
	if k > 1 && c[k-1] == 0 {
		c[k-1] = 1 + rng.Uint64()%(Prime-1)
	}
	return Poly{coeffs: c}
}

// Degree returns the polynomial degree (independence k = Degree()+1).
func (p Poly) Degree() int { return len(p.coeffs) - 1 }

// Coeffs returns a copy of the coefficients (constant term first). It
// exists so the seed-leakage adversary of the experiments can be handed
// the hash function's full description — the "randomness reuse" threat
// model that Section 10's PRF construction defends against.
func (p Poly) Coeffs() []uint64 { return append([]uint64(nil), p.coeffs...) }

// Equal reports whether p and q are the same polynomial — the shared
// randomness every sketch merge requires.
func (p Poly) Equal(q Poly) bool { return slices.Equal(p.coeffs, q.coeffs) }

// PolyFromCoeffs reconstructs a Poly from stored coefficients (constant
// term first), the inverse of Coeffs; used by sketch deserialization.
// Coefficients are canonicalized into the field.
func PolyFromCoeffs(coeffs []uint64) Poly {
	c := make([]uint64, len(coeffs))
	for i, v := range coeffs {
		c[i] = Canon(v)
	}
	if len(c) == 0 {
		c = []uint64{0}
	}
	return Poly{coeffs: c}
}

// Eval returns h(x) ∈ [0, Prime) by Horner's rule in O(k) field
// operations. The pairwise case (KMV, whose trailing copies hash every
// buffered update) and the 4-wise case (AMS, CountSketch — every
// per-update hot path in the repository) are unrolled.
func (p Poly) Eval(x uint64) uint64 {
	x = Canon(x)
	c := p.coeffs
	if len(c) == 2 {
		return Add(Mul(c[1], x), c[0])
	}
	if len(c) == 4 {
		acc := Add(Mul(c[3], x), c[2])
		acc = Add(Mul(acc, x), c[1])
		return Add(Mul(acc, x), c[0])
	}
	acc := c[len(c)-1]
	for i := len(c) - 2; i >= 0; i-- {
		acc = Add(Mul(acc, x), c[i])
	}
	return acc
}

// Uniform01 maps h(x) to a float in [0, 1), preserving order. It is the
// form consumed by KMV-style minimum-value sketches.
func (p Poly) Uniform01(x uint64) float64 {
	return float64(p.Eval(x)) / float64(Prime)
}

// Sign returns ±1 derived from the low bit of h(x); with a 4-wise family
// this is the 4-wise independent Rademacher variable used by AMS and
// CountSketch.
func (p Poly) Sign(x uint64) int64 {
	if p.Eval(x)&1 == 1 {
		return 1
	}
	return -1
}

// Bucket returns h(x) mod w, an (almost) uniform bucket index in [0, w).
// The bias from the non-divisibility of Prime by w is ≤ w/Prime.
func (p Poly) Bucket(x uint64, w int) int {
	return int(p.Eval(x) % uint64(w))
}

// SpaceBytes returns the seed storage of the hash function in bytes.
func (p Poly) SpaceBytes() int { return 8 * len(p.coeffs) }

// SignBucket returns both a sign and a bucket from a single evaluation,
// using disjoint bits of the hash value. The bucket uses the high bits and
// the sign the lowest bit, so with a (k+1)-wise family both are k-wise
// independent and mutually independent up to the 1/Prime discretization.
// The bucket is the range reduction ⌊v·w/2^64⌋ of the (shifted) hash
// value v — a single high multiply instead of a hardware divide, with the
// same ≤ w/Prime-order bias as the modulo it replaces. SignBucket is the
// innermost operation of every counter-sketch update loop, so its cost is
// the floor on ingest throughput.
func (p Poly) SignBucket(x uint64, w int) (sign int64, bucket int) {
	h := p.Eval(x)
	sign = int64(h&1)*2 - 1
	// h>>1 has 60 uniform-ish bits; align them to the top of the 64-bit
	// range so the high-multiply reduction sees the full word.
	hi, _ := bits.Mul64((h>>1)<<4, uint64(w))
	return sign, int(hi)
}

// Powers returns x, x² and x³ in the field: all SignBuckets needs of an
// item, computed once for every polynomial the item is hashed by.
func Powers(x uint64) [3]uint64 {
	x = Canon(x)
	x2 := Mul(x, x)
	return [3]uint64{x, x2, Mul(x2, x)}
}

// SignBuckets is SignBucket over a block of items given by their Powers:
// dst[i] = bucket<<1 | (sign+1)/2, which holds any int width. A cubic is
// evaluated in power form, c₃x³ + c₂x² + c₁x + c₀, as three independent
// multiplies summed in 128 bits — no Horner dependency chain — and reduced
// once: the factors are canonical, so three products below 2¹²² sum below
// 2¹²⁴, which one Mersenne fold brings under 2⁶⁴ as in Mul. The canonical
// representative is unique, so every word is what SignBucket returns; any
// other degree takes Eval.
func (p Poly) SignBuckets(dst []uint64, pw [][3]uint64, w int) {
	pw = pw[:len(dst)]
	if len(p.coeffs) != 4 {
		for i := range dst {
			dst[i] = signBucketWord(p.Eval(pw[i][0]), w)
		}
		return
	}
	c0, c1, c2, c3 := p.coeffs[0], p.coeffs[1], p.coeffs[2], p.coeffs[3]
	for i := range dst {
		h1, l1 := bits.Mul64(c1, pw[i][0])
		h2, l2 := bits.Mul64(c2, pw[i][1])
		h3, l3 := bits.Mul64(c3, pw[i][2])
		lo, carry1 := bits.Add64(l1, l2, 0)
		lo, carry2 := bits.Add64(lo, l3, 0)
		lo, carry3 := bits.Add64(lo, c0, 0)
		hi := h1 + h2 + h3 + carry1 + carry2 + carry3
		dst[i] = signBucketWord(reduce((lo&Prime)+(lo>>61)+hi<<3), w)
	}
}

// signBucketWord packs SignBucket's outputs for the hash value h.
func signBucketWord(h uint64, w int) uint64 {
	bucket, _ := bits.Mul64((h>>1)<<4, uint64(w))
	return bucket<<1 | h&1
}
