package engine

import "math"

// ShardEstimate is one shard's published estimate and mass: its
// estimator's estimate and the net mass (Σ delta) of the updates routed to
// it, or a MassReporter's own mass. The mass is the Entropy combiner's
// weight.
type ShardEstimate struct {
	Estimate float64
	Mass     int64
}

// A Combiner reassembles the global statistic from per-shard estimates.
// Because the engine routes each item to exactly one shard, the shards'
// frequency vectors have disjoint supports and partition the global
// frequency vector f = Σ_s f_s — which is what makes the combiners below
// exact (up to the per-shard estimation error, which they propagate
// without amplification).
type Combiner func(shards []ShardEstimate) float64

// Sum adds the shard estimates: exact for statistics that are additive
// over disjoint supports — F0 (distinct counts of disjoint item sets),
// F1, and any frequency moment F_p = Σ_i |f_i|^p.
func Sum(shards []ShardEstimate) float64 {
	var total float64
	for _, s := range shards {
		total += s.Estimate
	}
	return total
}

// Norm combines shard L_p norms into the global L_p norm,
// ‖f‖_p = (Σ_s ‖f_s‖_p^p)^{1/p}: the moments add over disjoint supports,
// and per-shard (1±ε) norm errors stay (1±ε) after recombination.
func Norm(p float64) Combiner {
	if p <= 0 {
		panic("engine: Norm needs p > 0")
	}
	return func(shards []ShardEstimate) float64 {
		var moment float64
		for _, s := range shards {
			moment += math.Pow(s.Estimate, p)
		}
		return math.Pow(moment, 1/p)
	}
}

// Entropy combines per-shard Shannon entropies (in bits, as the entropy
// estimators here report) via the chain rule for a partition:
//
//	H(f) = Σ_s (m_s/m)·H(f_s) + Σ_s (m_s/m)·log₂(m/m_s)
//
// where m_s is the shard's mass. The second term — the entropy of the
// shard-assignment distribution — is computed exactly from the tracked
// masses, so the only error is the mass-weighted average of the per-shard
// additive errors: additive ε in, additive ε out.
func Entropy(shards []ShardEstimate) float64 {
	var m float64
	for _, s := range shards {
		m += float64(s.Mass)
	}
	if m <= 0 {
		return 0
	}
	var h float64
	for _, s := range shards {
		if s.Mass <= 0 {
			continue
		}
		w := float64(s.Mass) / m
		h += w*s.Estimate + w*math.Log2(1/w)
	}
	return h
}
