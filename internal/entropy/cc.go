package entropy

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/dist"
)

// CC is the Clifford–Cosma entropy sketch [11]: k counters
// y_j = Σ_i f_i·X_ij with X_ij maximally skewed standard 1-stable
// variables, for which E[exp(y_j/F1)] = exp(−(2/π)·H_nat(f)). Group means
// of exp(y_j/F1) therefore estimate exp(−(2/π)H); a median over groups
// boosts the constant success probability to 1−δ, and
// Ĥ = −(π/2)·ln(median of group means) is an additive-ε estimate of the
// Shannon entropy with k = Θ(ε⁻²·log 1/δ) counters.
//
// F1 is tracked exactly by a counter (the stream must keep the frequency
// vector non-negative, e.g. insertion-only). Like Indyk's sketch, the
// per-(item, counter) variates are derived from salted SplitMix64 streams.
type CC struct {
	groups, per int // groups × per-group counters
	salts       []uint64
	y           []float64
	f1          int64
}

// CCSizing holds the dimensions of a CC sketch.
type CCSizing struct {
	Groups int // median groups, Θ(log 1/δ)
	Per    int // counters per group, Θ(1/ε²)
}

// Bytes is what a sketch of these dimensions keeps resident: a counter and
// a salt per cell.
func (s CCSizing) Bytes() float64 { return 16 * float64(s.Groups) * float64(s.Per) }

// SizeCC returns dimensions for an additive-ε (in bits) estimate with
// probability 1−δ; pass δ/m for strong tracking over m steps.
func SizeCC(eps, delta float64) CCSizing {
	return SizeCCLn(eps, math.Log(1/delta))
}

// SizeCCLn is SizeCC with the failure probability in log form,
// δ = exp(−lnInvDelta) — the form the computation-paths sizings need. It
// is the single source of the CC sizing constants; SizeCC delegates here.
func SizeCCLn(eps, lnInvDelta float64) CCSizing {
	if eps <= 0 {
		panic("entropy: need eps > 0")
	}
	epsNat := eps * math.Ln2 // internal arithmetic is in nats
	groups := 2*int(math.Ceil(0.6*math.Log2E*lnInvDelta))/2*2 + 1
	if groups < 3 {
		groups = 3
	}
	per := int(math.Ceil(6 / (epsNat * epsNat)))
	if per < 8 {
		per = 8
	}
	return CCSizing{Groups: groups, Per: per}
}

// NewCC returns a Clifford–Cosma sketch with the given dimensions.
func NewCC(s CCSizing, rng *rand.Rand) *CC {
	k := s.Groups * s.Per
	cc := &CC{groups: s.Groups, per: s.Per}
	cc.salts = make([]uint64, k)
	cc.y = make([]float64, k)
	for j := range cc.salts {
		cc.salts[j] = rng.Uint64()
	}
	return cc
}

// variate returns X_{item,j}, identical across calls.
func (cc *CC) variate(item uint64, j int) float64 {
	u1 := dist.SplitMix64(item ^ cc.salts[j])
	u2 := dist.SplitMix64(u1 ^ 0xD1B54A32D192ED03)
	return dist.SkewedStable1(u1, u2)
}

// Update implements sketch.Estimator.
func (cc *CC) Update(item uint64, delta int64) {
	cc.f1 += delta
	d := float64(delta)
	for j := range cc.y {
		cc.y[j] += d * cc.variate(item, j)
	}
}

// Estimate returns the entropy estimate in bits, clamped to the valid
// range [0, log₂ F1].
func (cc *CC) Estimate() float64 {
	if cc.f1 <= 0 {
		return 0
	}
	f1 := float64(cc.f1)
	means := make([]float64, cc.groups)
	for g := 0; g < cc.groups; g++ {
		var sum float64
		for j := g * cc.per; j < (g+1)*cc.per; j++ {
			arg := cc.y[j] / f1
			if arg > 500 { // guard exp overflow on pathological variates
				arg = 500
			}
			sum += math.Exp(arg)
		}
		means[g] = sum / float64(cc.per)
	}
	sort.Float64s(means)
	med := means[cc.groups/2]
	if med <= 0 {
		return 0
	}
	hNat := -(math.Pi / 2) * math.Log(med)
	h := hNat / math.Ln2
	if h < 0 {
		return 0
	}
	if max := math.Log2(f1 + 1); h > max {
		return max
	}
	return h
}

// F1 returns the exact stream mass tracked by the sketch.
func (cc *CC) F1() int64 { return cc.f1 }

// Mass implements engine.MassReporter with the exact F1 counter, which
// Merge folds in — so a merged sketch reports the combined stream mass.
func (cc *CC) Mass() int64 { return cc.f1 }

// SpaceBytes charges counters and salts plus the F1 counter.
func (cc *CC) SpaceBytes() int { return 16*len(cc.y) + 8 }
