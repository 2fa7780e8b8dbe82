package hash

import (
	"math"
	"math/rand"
	"testing"
)

func TestTabulationDeterministic(t *testing.T) {
	a := NewTabulation(rand.New(rand.NewSource(1)))
	b := NewTabulation(rand.New(rand.NewSource(1)))
	for x := uint64(0); x < 1000; x++ {
		if a.Eval(x) != b.Eval(x) {
			t.Fatalf("same-seed tabulation differs at %d", x)
		}
	}
}

func TestTabulationUniformBuckets(t *testing.T) {
	h := NewTabulation(rand.New(rand.NewSource(2)))
	const buckets, n = 32, 200000
	counts := make([]int, buckets)
	for x := uint64(0); x < n; x++ {
		counts[h.Bucket(x, buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.08*want {
			t.Errorf("bucket %d count %d deviates from %v", b, c, want)
		}
	}
}

func TestTabulationSequentialKeysWellMixed(t *testing.T) {
	// The property a degree-1 polynomial lacks (a register-indexed sketch such as HyperLogLog needs it): the top
	// bits of hashes of an arithmetic progression must not clump.
	h := NewTabulation(rand.New(rand.NewSource(3)))
	const regs = 1024
	hit := make([]bool, regs)
	touched := 0
	for x := uint64(0); x < 5000; x++ {
		r := h.Eval(x*2654435761+1) >> (64 - 10)
		if !hit[r] {
			hit[r] = true
			touched++
		}
	}
	// Expected touched ≈ regs·(1−e^{−5000/1024}) ≈ 1016.
	if touched < 950 {
		t.Errorf("only %d/%d registers touched by 5000 sequential keys", touched, regs)
	}
}

func TestTabulationSignBalance(t *testing.T) {
	h := NewTabulation(rand.New(rand.NewSource(4)))
	var sum int64
	const n = 100000
	for x := uint64(0); x < n; x++ {
		sum += h.Sign(x)
	}
	if math.Abs(float64(sum)) > 4*math.Sqrt(n) {
		t.Errorf("sign sum %d too unbalanced", sum)
	}
}

func TestTabulationUniform01Range(t *testing.T) {
	h := NewTabulation(rand.New(rand.NewSource(5)))
	for x := uint64(0); x < 1000; x++ {
		if u := h.Uniform01(x); u < 0 || u >= 1 {
			t.Fatalf("Uniform01(%d) = %v", x, u)
		}
	}
}

func BenchmarkTabulationEval(b *testing.B) {
	h := NewTabulation(rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Eval(uint64(i))
	}
}

func BenchmarkPolyEvalPairwise(b *testing.B) {
	p := NewPoly(2, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Eval(uint64(i))
	}
}
