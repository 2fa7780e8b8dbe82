package f0

import (
	"math"
	"math/bits"

	"repro/internal/dist"
	"repro/internal/hash"
)

// Alg2 is the paper's fast distinct-elements estimator (Algorithm 2 /
// Lemma 5.2), designed to have an extremely mild update-time dependence on
// the failure probability δ so that the computation-paths reduction (which
// needs δ < n^{−(1/ε)·log n}) stays fast (Theorem 1.2 / 5.4).
//
// Items are hashed with a d-wise independent function into geometric
// levels; level j receives an item with probability 2^{−(j+1)}. Each level
// stores up to B identities and is deleted forever once it saturates. The
// estimate reads the deepest level that still holds at least B/5 items and
// rescales: F̂0 = |L_i|·2^{i+1}. The first 5B distinct items are counted
// exactly (no hashing needed), covering the regime before any level is
// statistically meaningful — this also absorbs the reporting delay of the
// batched hashing below, as in the paper's proof.
//
// From degree alg2BatchDegree up, incoming items are buffered and hashed d
// at a time via the multipoint evaluation of Proposition 5.3, making the
// amortized hashing cost per item o(d) field operations instead of the d
// of Horner's rule.
type Alg2 struct {
	b        int // list capacity B
	d        int // hash independence = batch size
	h        hash.Poly
	levels   []alg2Level
	exact    map[uint64]struct{}
	exactCap int
	exactOK  bool
	buf      []uint64
	batch    bool // hash d buffered items at once; fixed at construction
}

type alg2Level struct {
	items   map[uint64]struct{}
	deleted bool
}

const alg2Levels = hash.Bits // levels 0..60

// alg2BatchDegree is the hash degree from which multipoint evaluation
// (Proposition 5.3) beats Horner's rule over GF(2^61 − 1), where the
// subproduct tree multiplies by Karatsuba. Measured, ns per Update, Horner |
// batched: d=32 331 | 1 684, d=64 406 | 1 918, d=256 1 420 | 3 697,
// d=1 024 5 991 | 8 169, d=4 096 23 651 | 24 663, d=8 192 48 584 | 47 113,
// d=16 384 93 588 | 54 956. Theorem 1.2's own degrees straddle it (1 214 at
// ε 0.4, n 2¹²; 13 358 at ε 0.1, n 2²⁰); `experiments -exp fastf0` prints
// the crossover on the host it runs on.
const alg2BatchDegree = 8192

// Alg2Params sizes an Alg2 instance.
type Alg2Params struct {
	B int // per-level capacity, Θ(ε⁻² log 1/δ)
	D int // hash independence, Θ(log log n + log 1/δ)
}

// Alg2Sizing returns parameters for a (1±ε) estimate with failure
// probability exp(−lnInvDelta) on a universe of size n. The failure
// probability is passed in log form because the computation-paths
// reduction instantiates it at values like n^{−(1/ε)·log n} that underflow
// float64.
func Alg2Sizing(eps, lnInvDelta float64, n uint64) Alg2Params {
	if eps <= 0 || eps >= 1 {
		panic("f0: need 0 < eps < 1")
	}
	if lnInvDelta < 1 {
		lnInvDelta = 1
	}
	loglog := math.Log(math.Log2(float64(n)+4) + 1)
	b := int(math.Ceil(8 / (eps * eps) * (1 + math.Log2(math.E)*(lnInvDelta+loglog)/8)))
	d := int(math.Ceil(2 * (loglog + lnInvDelta*math.Log2(math.E)/8)))
	if d < 8 {
		d = 8
	}
	return Alg2Params{B: b, D: d}
}

// NewAlg2 returns an Algorithm 2 instance with the given parameters; p.D
// fixes its hashing (alg2BatchDegree), which DuplicateInsensitive reports.
func NewAlg2(p Alg2Params, seed int64) *Alg2 {
	rng := dist.Rand(seed)
	a := &Alg2{
		b:        p.B,
		d:        p.D,
		h:        hash.NewPoly(p.D, rng),
		levels:   make([]alg2Level, alg2Levels),
		exact:    make(map[uint64]struct{}),
		exactCap: 5 * p.B,
		exactOK:  true,
		batch:    p.D >= alg2BatchDegree,
	}
	for i := range a.levels {
		a.levels[i].items = make(map[uint64]struct{})
	}
	return a
}

// level maps a hash value in [0, 2^61) to its geometric level: level j is
// hit with probability 2^{−(j+1)} (j = number of leading zeros of the
// 61-bit value).
func level(h uint64) int {
	j := alg2Levels - bits.Len64(h)
	if j >= alg2Levels {
		j = alg2Levels - 1
	}
	return j
}

// Update implements sketch.Estimator (deltas ignored).
func (a *Alg2) Update(item uint64, delta int64) {
	if a.exactOK {
		a.exact[item] = struct{}{}
		if len(a.exact) > a.exactCap {
			a.exactOK = false
			a.exact = nil
		}
	}
	if !a.batch {
		a.place(item, a.h.Eval(item))
		return
	}
	a.buf = append(a.buf, item)
	if len(a.buf) >= a.d {
		a.flush()
	}
}

func (a *Alg2) flush() {
	if len(a.buf) == 0 {
		return
	}
	hs := a.h.EvalMulti(a.buf)
	for i, item := range a.buf {
		a.place(item, hs[i])
	}
	a.buf = a.buf[:0]
}

func (a *Alg2) place(item, h uint64) {
	l := &a.levels[level(h)]
	if l.deleted {
		return
	}
	l.items[item] = struct{}{}
	if len(l.items) > a.b {
		l.deleted = true
		l.items = nil
	}
}

// Estimate implements sketch.Estimator. While fewer than 5B distinct items
// have been seen the answer is exact; afterwards it is the deepest
// sufficiently full level, rescaled. The (up to d) buffered items are an
// additive error the sizing absorbs (d ≤ ε·5B for every valid parameter
// choice).
func (a *Alg2) Estimate() float64 {
	if a.exactOK {
		return float64(len(a.exact))
	}
	for i := alg2Levels - 1; i >= 0; i-- {
		l := &a.levels[i]
		if !l.deleted && 5*len(l.items) >= a.b {
			return float64(len(l.items)) * math.Pow(2, float64(i+1))
		}
	}
	// Degenerate fallback: no level is meaningfully full (only possible
	// with extreme parameter/stream mismatches). Use the fullest level.
	best := 0.0
	for i := range a.levels {
		l := &a.levels[i]
		if !l.deleted {
			if e := float64(len(l.items)) * math.Pow(2, float64(i+1)); e > best {
				best = e
			}
		}
	}
	return best
}

// SpaceBytes charges the hash seed, the batch buffer and every identity set
// at what the runtime keeps for it.
func (a *Alg2) SpaceBytes() int {
	total := a.h.SpaceBytes() + 8*len(a.buf) + setBytes(len(a.exact))
	for i := range a.levels {
		total += setBytes(len(a.levels[i].items))
	}
	return total
}

// setBytes is the resident size of a map[uint64]struct{} of n keys: a slot
// is 17 bytes (key, a padding word, a control byte) and slots double to
// hold the load at or under 7/8.
func setBytes(n int) int {
	if n == 0 {
		return 0
	}
	slots := 8
	for 7*slots < 8*n {
		slots *= 2
	}
	return 17 * slots
}

// DuplicateInsensitive: re-inserting a stored (or deleted-level) item never
// changes the lists; the exact set is a set. The batch buffer breaks
// *transient* insensitivity (a duplicate may sit in the buffer), so only
// an instance below the batching degree declares the property.
func (a *Alg2) DuplicateInsensitive() bool { return !a.batch }
