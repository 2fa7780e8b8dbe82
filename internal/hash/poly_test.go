package hash

import (
	"math"
	"math/rand"
	"testing"
)

func TestPolyEvalMatchesManual(t *testing.T) {
	// h(x) = 3 + 2x + 5x² evaluated at small points.
	p := Poly{coeffs: []uint64{3, 2, 5}}
	cases := []struct{ x, want uint64 }{
		{0, 3},
		{1, 10},
		{2, 27},
		{10, 523},
	}
	for _, c := range cases {
		if got := p.Eval(c.x); got != c.want {
			t.Errorf("Eval(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestPolyDeterministicPerSeed(t *testing.T) {
	a := NewPoly(4, rand.New(rand.NewSource(9)))
	b := NewPoly(4, rand.New(rand.NewSource(9)))
	for x := uint64(0); x < 100; x++ {
		if a.Eval(x) != b.Eval(x) {
			t.Fatalf("same-seed polynomials differ at %d", x)
		}
	}
}

func TestPolyUniform01Range(t *testing.T) {
	p := NewPoly(2, rand.New(rand.NewSource(3)))
	for x := uint64(0); x < 1000; x++ {
		u := p.Uniform01(x)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform01(%d) = %v out of [0,1)", x, u)
		}
	}
}

func TestPolyUniformityChiSquare(t *testing.T) {
	// Bucket 100k consecutive keys into 16 buckets; with a pairwise family
	// each bucket should hold ≈ 1/16 of keys. This is a smoke test for
	// gross non-uniformity, not a strict statistical test.
	p := NewPoly(2, rand.New(rand.NewSource(5)))
	const buckets, n = 16, 100000
	counts := make([]int, buckets)
	for x := uint64(0); x < n; x++ {
		counts[p.Bucket(x, buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Errorf("bucket %d count %d deviates more than 10%% from %v", b, c, want)
		}
	}
}

func TestPolySignBalance(t *testing.T) {
	p := NewPoly(4, rand.New(rand.NewSource(6)))
	var sum int64
	const n = 100000
	for x := uint64(0); x < n; x++ {
		s := p.Sign(x)
		if s != 1 && s != -1 {
			t.Fatalf("Sign returned %d", s)
		}
		sum += s
	}
	if math.Abs(float64(sum)) > 4*math.Sqrt(n) {
		t.Errorf("sign sum %d exceeds 4·sqrt(n); signs badly unbalanced", sum)
	}
}

func TestPolySignBucketConsistency(t *testing.T) {
	p := NewPoly(4, rand.New(rand.NewSource(7)))
	for x := uint64(0); x < 500; x++ {
		s1, b1 := p.SignBucket(x, 32)
		s2, b2 := p.SignBucket(x, 32)
		if s1 != s2 || b1 != b2 {
			t.Fatalf("SignBucket not deterministic at %d", x)
		}
		if b1 < 0 || b1 >= 32 {
			t.Fatalf("bucket %d out of range", b1)
		}
	}
}

// TestSignBucketsMatchesSignBucket: the block evaluation is SignBucket,
// word for word — for random cubics, for the inputs and coefficients at
// the edges of the field (p−1 everywhere is the largest 128-bit sum the
// single reduction ever sees), at every width a sketch can have, and for
// the degrees that take the Eval fallback.
func TestSignBucketsMatchesSignBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := []uint64{0, 1, Prime - 1, Prime, Prime + 1, math.MaxUint64}
	for i := 0; i < 500; i++ {
		xs = append(xs, rng.Uint64())
	}
	polys := []Poly{{coeffs: []uint64{0}}} // what PolyFromCoeffs makes of no coefficients
	for _, c := range []uint64{0, 1, Prime - 1} {
		polys = append(polys, PolyFromCoeffs([]uint64{c, c, c, c}))
	}
	for _, k := range []int{1, 2, 3, 4, 4, 4, 4, 5, 9} {
		polys = append(polys, NewPoly(k, rng))
	}
	pw := make([][3]uint64, len(xs))
	for i, x := range xs {
		pw[i] = Powers(x)
	}
	dst := make([]uint64, len(xs))
	for _, p := range polys {
		for _, w := range []int{1, 134, 4800, math.MaxInt} {
			p.SignBuckets(dst, pw, w)
			for i, x := range xs {
				sign, bucket := p.SignBucket(x, w)
				if got := (int64(dst[i]&1)*2 - 1); got != sign || int(dst[i]>>1) != bucket {
					t.Fatalf("degree %d, w = %d, x = %d: block (%d, %d), SignBucket (%d, %d)",
						p.Degree(), w, x, got, dst[i]>>1, sign, bucket)
				}
			}
		}
	}
	// A short dst takes a prefix of the powers, as the kernel's last block does.
	polys[5].SignBuckets(dst[:3], pw, 7)
	if sign, bucket := polys[5].SignBucket(xs[2], 7); dst[2]>>1 != uint64(bucket) || int64(dst[2]&1)*2-1 != sign {
		t.Errorf("prefix evaluation disagrees with SignBucket")
	}
}

func TestPolyPairwiseCollisionRate(t *testing.T) {
	// For a pairwise family, Pr[h(x) mod w == h(y) mod w] ≈ 1/w.
	rng := rand.New(rand.NewSource(8))
	const w = 64
	const trials = 20000
	collisions := 0
	for i := 0; i < trials; i++ {
		p := NewPoly(2, rng)
		if p.Bucket(1, w) == p.Bucket(2, w) {
			collisions++
		}
	}
	got := float64(collisions) / trials
	if math.Abs(got-1.0/w) > 0.01 {
		t.Errorf("pairwise collision rate = %v, want ≈ %v", got, 1.0/w)
	}
}

func TestEvalMultiMatchesHorner(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, deg := range []int{17, 33, 64, 129} {
		p := NewPoly(deg+1, rng)
		points := make([]uint64, deg)
		for i := range points {
			points[i] = rng.Uint64()
		}
		multi := p.EvalMulti(points)
		for i, x := range points {
			if want := p.Eval(x); multi[i] != want {
				t.Fatalf("deg %d: EvalMulti[%d] = %d, want %d", deg, i, multi[i], want)
			}
		}
	}
}

func TestEvalMultiSmallBatchFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := NewPoly(40, rng)
	points := []uint64{1, 2, 3}
	multi := p.EvalMulti(points)
	for i, x := range points {
		if multi[i] != p.Eval(x) {
			t.Fatalf("fallback mismatch at %d", i)
		}
	}
	if got := p.EvalMulti(nil); got != nil {
		t.Errorf("EvalMulti(nil) = %v, want nil", got)
	}
}

func TestEvalMultiDuplicatePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := NewPoly(33, rng)
	points := make([]uint64, 32)
	for i := range points {
		points[i] = uint64(i % 4) // heavy duplication
	}
	multi := p.EvalMulti(points)
	for i, x := range points {
		if multi[i] != p.Eval(x) {
			t.Fatalf("duplicate-point mismatch at %d", i)
		}
	}
}

func TestPolyMulModInternals(t *testing.T) {
	// (x+1)(x+2) = x² + 3x + 2
	got := polyMul([]uint64{1, 1}, []uint64{2, 1})
	want := []uint64{2, 3, 1}
	if len(got) != len(want) {
		t.Fatalf("polyMul len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("polyMul[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// (x² + 3x + 2) mod (x+1) = 0
	rem := polyMod([]uint64{2, 3, 1}, []uint64{1, 1})
	if len(rem) != 1 || rem[0] != 0 {
		t.Errorf("polyMod = %v, want [0]", rem)
	}
	// x² mod (x+1) = 1 (since x ≡ −1)
	rem = polyMod([]uint64{0, 0, 1}, []uint64{1, 1})
	if len(rem) != 1 || rem[0] != 1 {
		t.Errorf("x² mod (x+1) = %v, want [1]", rem)
	}
}

func TestKaratsubaMatchesBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		a := make([]uint64, 70+rng.Intn(60))
		b := make([]uint64, 70+rng.Intn(60))
		for i := range a {
			a[i] = rng.Uint64() % Prime
		}
		for i := range b {
			b[i] = rng.Uint64() % Prime
		}
		fast := polyMul(a, b)
		slow := polyMulBasic(trim(a), trim(b))
		if len(fast) != len(slow) {
			t.Fatalf("length mismatch %d vs %d", len(fast), len(slow))
		}
		for i := range slow {
			if fast[i] != slow[i] {
				t.Fatalf("karatsuba mismatch at coeff %d", i)
			}
		}
	}
}

func TestFastDivisionMatchesBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		a := make([]uint64, 300+rng.Intn(300))
		bb := make([]uint64, 100+rng.Intn(100))
		for i := range a {
			a[i] = rng.Uint64() % Prime
		}
		for i := range bb {
			bb[i] = rng.Uint64() % Prime
		}
		if bb[len(bb)-1] == 0 {
			bb[len(bb)-1] = 1
		}
		fast := polyMod(a, bb)
		slow := polyModBasic(a, bb)
		if len(fast) != len(slow) {
			t.Fatalf("trial %d: remainder length %d vs %d", trial, len(fast), len(slow))
		}
		for i := range slow {
			if fast[i] != slow[i] {
				t.Fatalf("trial %d: remainder mismatch at coeff %d", trial, i)
			}
		}
	}
}

func TestPolyInvSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := make([]uint64, 200)
	for i := range f {
		f[i] = rng.Uint64() % Prime
	}
	if f[0] == 0 {
		f[0] = 1
	}
	const n = 200
	g := polyInvSeries(f, n)
	prod := truncate(polyMul(f, g), n)
	if prod[0] != 1 {
		t.Fatalf("f·f⁻¹ constant term = %d, want 1", prod[0])
	}
	for i := 1; i < len(prod); i++ {
		if prod[i] != 0 {
			t.Fatalf("f·f⁻¹ coeff %d = %d, want 0", i, prod[i])
		}
	}
}

func TestEvalMultiLargeDegree(t *testing.T) {
	// Exercise the fast-division path (degree above the cutoff).
	rng := rand.New(rand.NewSource(23))
	p := NewPoly(400, rng)
	points := make([]uint64, 400)
	for i := range points {
		points[i] = rng.Uint64()
	}
	multi := p.EvalMulti(points)
	for _, i := range []int{0, 17, 199, 399} {
		if want := p.Eval(points[i]); multi[i] != want {
			t.Fatalf("EvalMulti[%d] = %d, want %d", i, multi[i], want)
		}
	}
}

func BenchmarkPolyEvalHorner(b *testing.B) {
	p := NewPoly(64, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Eval(uint64(i))
	}
}

func BenchmarkPolyEvalMulti64(b *testing.B) {
	p := NewPoly(64, rand.New(rand.NewSource(1)))
	points := make([]uint64, 64)
	for i := range points {
		points[i] = uint64(i) * 2654435761
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EvalMulti(points)
	}
}
