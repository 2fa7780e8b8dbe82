package heavyhitters

import (
	"math"
	"sort"
)

// MisraGries is the deterministic frequent-elements summary [32]: at most
// k counters; any item with f_i > ‖f‖₁/(k+1) is guaranteed to be present,
// and every stored count underestimates the truth by at most ‖f‖₁/(k+1).
// Being deterministic it is adversarially robust as-is — it is the
// O(ε⁻¹ log n) deterministic L1 row of Table 1, against which the
// randomized L2 algorithms are compared.
type MisraGries struct {
	k        int
	counters map[uint64]int64
	f1       int64
}

// NewMisraGries returns a summary with at most k counters.
func NewMisraGries(k int) *MisraGries {
	if k < 1 {
		panic("heavyhitters: MisraGries needs k >= 1")
	}
	return &MisraGries{k: k, counters: make(map[uint64]int64, k+1)}
}

// Update implements sketch.PointQuerier for unit-style non-negative deltas.
func (mg *MisraGries) Update(item uint64, delta int64) {
	if delta <= 0 {
		panic("heavyhitters: MisraGries is insertion-only")
	}
	mg.f1 += delta
	if _, ok := mg.counters[item]; ok {
		mg.counters[item] += delta
		return
	}
	// Weighted Misra–Gries: while the item has no counter and the summary
	// is full, subtract the largest amount that keeps every counter
	// non-negative (freeing a slot when some counter reaches zero),
	// charging the same amount against the incoming delta.
	for delta > 0 {
		if len(mg.counters) < mg.k {
			mg.counters[item] += delta
			return
		}
		min := int64(math.MaxInt64)
		for _, c := range mg.counters {
			if c < min {
				min = c
			}
		}
		d := delta
		if min < d {
			d = min
		}
		for it, c := range mg.counters {
			if c-d == 0 {
				delete(mg.counters, it)
			} else {
				mg.counters[it] = c - d
			}
		}
		delta -= d
	}
}

// Query returns the stored count (a lower bound on f_item; 0 if absent).
func (mg *MisraGries) Query(item uint64) float64 {
	return float64(mg.counters[item])
}

// ErrorBound returns the maximum undercount ‖f‖₁/(k+1).
func (mg *MisraGries) ErrorBound() float64 {
	return float64(mg.f1) / float64(mg.k+1)
}

// HeavyHitters returns stored items with count ≥ thresh, sorted by id.
func (mg *MisraGries) HeavyHitters(thresh float64) []uint64 {
	var out []uint64
	for it, c := range mg.counters {
		if float64(c) >= thresh {
			out = append(out, it)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Estimate implements sketch.Estimator with the exact F1.
func (mg *MisraGries) Estimate() float64 { return float64(mg.f1) }

// SpaceBytes charges 16 bytes per counter.
func (mg *MisraGries) SpaceBytes() int { return 16*len(mg.counters) + 8 }
