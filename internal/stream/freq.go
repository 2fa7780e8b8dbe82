package stream

import (
	"math"
	"sort"
)

// Freq is an exact frequency vector maintained incrementally. It is the
// ground truth against which every sketch in this repository is validated:
// tests and the adversarial game runner feed the same updates to a sketch
// and to a Freq, then compare estimates against the exact statistics below.
//
// Freq deliberately uses Θ(F0) space; it is a reference implementation, not
// a streaming algorithm (the paper's lower bounds [9] show exact computation
// needs Ω(n) space, which is why the sketches exist).
type Freq struct {
	counts map[uint64]int64
	m      int64 // number of updates applied
}

// NewFreq returns an empty frequency vector.
func NewFreq() *Freq {
	return &Freq{counts: make(map[uint64]int64)}
}

// Apply processes one update.
func (f *Freq) Apply(u Update) {
	f.m++
	c := f.counts[u.Item] + u.Delta
	if c == 0 {
		delete(f.counts, u.Item)
	} else {
		f.counts[u.Item] = c
	}
}

// ApplyAll processes every update of s in order.
func (f *Freq) ApplyAll(s Stream) {
	for _, u := range s {
		f.Apply(u)
	}
}

// Updates returns the number of updates applied so far (the stream length m).
func (f *Freq) Updates() int64 { return f.m }

// Count returns f[item].
func (f *Freq) Count(item uint64) int64 { return f.counts[item] }

// Support returns the set of items with non-zero frequency, in no
// particular order.
func (f *Freq) Support() []uint64 {
	items := make([]uint64, 0, len(f.counts))
	for i := range f.counts {
		items = append(items, i)
	}
	return items
}

// F0 returns the number of distinct elements ‖f‖₀ = |{i : f_i ≠ 0}|.
func (f *Freq) F0() float64 { return float64(len(f.counts)) }

// F1 returns ‖f‖₁ = Σ|f_i|.
func (f *Freq) F1() float64 {
	var s float64
	for _, c := range f.counts {
		s += math.Abs(float64(c))
	}
	return s
}

// Fp returns the p-th frequency moment F_p = Σ|f_i|^p for p > 0.
// For p = 0 it returns F0 (with the convention 0^0 = 0).
func (f *Freq) Fp(p float64) float64 {
	if p == 0 {
		return f.F0()
	}
	var s float64
	for _, c := range f.counts {
		s += math.Pow(math.Abs(float64(c)), p)
	}
	return s
}

// Lp returns the p-norm ‖f‖_p = F_p^{1/p} for p > 0.
func (f *Freq) Lp(p float64) float64 { return math.Pow(f.Fp(p), 1/p) }

// L2 returns the Euclidean norm ‖f‖₂.
func (f *Freq) L2() float64 { return f.Lp(2) }

// Entropy returns the empirical Shannon entropy in bits,
// H(f) = −Σ |f_i|/‖f‖₁ · log₂(|f_i|/‖f‖₁), with H of the zero vector
// defined as 0.
func (f *Freq) Entropy() float64 {
	f1 := f.F1()
	if f1 == 0 {
		return 0
	}
	var h float64
	for _, c := range f.counts {
		p := math.Abs(float64(c)) / f1
		h -= p * math.Log2(p)
	}
	return h
}

// HeavyHitters returns every item i with |f_i| ≥ threshold, sorted by item
// id for determinism.
func (f *Freq) HeavyHitters(threshold float64) []uint64 {
	var hh []uint64
	for i, c := range f.counts {
		if math.Abs(float64(c)) >= threshold {
			hh = append(hh, i)
		}
	}
	sort.Slice(hh, func(a, b int) bool { return hh[a] < hh[b] })
	return hh
}

// L2HeavyHitters returns every item with |f_i| ≥ eps·‖f‖₂ (the L2 guarantee
// of Definition 6.1 of the paper).
func (f *Freq) L2HeavyHitters(eps float64) []uint64 {
	return f.HeavyHitters(eps * f.L2())
}

// MaxAbs returns ‖f‖∞ = max_i |f_i|.
func (f *Freq) MaxAbs() int64 {
	var m int64
	for _, c := range f.counts {
		if c < 0 {
			c = -c
		}
		if c > m {
			m = c
		}
	}
	return m
}

// Trajectory applies s update-by-update and returns the value of g after
// every prefix: out[t] = g(f^(t)) for t = 1..len(s). It is the reference
// sequence used by flip-number measurements and strong-tracking tests.
func Trajectory(s Stream, g func(*Freq) float64) []float64 {
	f := NewFreq()
	out := make([]float64, len(s))
	for t, u := range s {
		f.Apply(u)
		out[t] = g(f)
	}
	return out
}
