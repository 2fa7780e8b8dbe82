package f0

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/dist"
	"repro/internal/hash"
	"repro/internal/order"
	"repro/internal/sketch"
)

// KMV is the k-minimum-values distinct elements sketch (Bar-Yossef et al.):
// it keeps the k smallest hash values seen and estimates
// F0 ≈ (k−1)/u_(k), where u_(k) is the k-th smallest hash normalized to
// (0, 1). A single instance gives relative error O(1/√k) with constant
// probability; Median combines instances for (ε, δ) guarantees.
//
// KMV is duplicate-insensitive with probability 1: a repeated item hashes
// to the same value, which is either already stored or no smaller than the
// current k-th minimum, so the state never changes. This is the property
// Section 10 of the paper requires of the inner sketch of its
// cryptographically robust F0 algorithm.
//
// The state is one run: vals holds the retained minima distinct and
// descending, the k-th minimum at vals[0] once full, which is also the
// encoded order, in an array never longer than k. A rejected update costs
// the threshold compare; an accepted single insert shifts O(k) words. A
// batch's values under the threshold are ordered in linear time and merged
// in one pass; a long batch orders only those that can be among the k
// smallest, so a fresh copy's first drain does not sort what it drops.
type KMV struct {
	k    int
	h    hash.Poly
	vals []uint64
}

// NewKMV returns a KMV sketch retaining the k smallest hash values, with a
// pairwise-independent hash drawn from rng.
func NewKMV(k int, rng *rand.Rand) *KMV {
	if k < 2 {
		panic("f0: KMV needs k >= 2")
	}
	return &KMV{k: k, h: hash.NewPoly(2, rng)}
}

// Update implements sketch.Estimator (deltas ignored; F0 counts presence).
// Once the sketch is full almost every value is at or above the k-th
// minimum, so that compare comes first and is the whole cost of a rejected
// update; below it a binary search finds a repeat or the insertion point.
func (s *KMV) Update(item uint64, delta int64) {
	v := s.h.Eval(item)
	full := len(s.vals) == s.k
	if full && v >= s.vals[0] {
		return
	}
	i, j := 0, len(s.vals) // the values above v are vals[:i]
	for i < j {
		if mid := int(uint(i+j) >> 1); s.vals[mid] > v {
			i = mid + 1
		} else {
			j = mid
		}
	}
	if i < len(s.vals) && s.vals[i] == v {
		return
	}
	if !full {
		s.vals = s.grow(len(s.vals) + 1)
		copy(s.vals[i+1:], s.vals[i:])
		s.vals[i] = v
		return
	}
	copy(s.vals, s.vals[1:i]) // over the evicted maximum
	s.vals[i-1] = v
}

// UpdateBatch implements sketch.BatchUpdater. Every value is written to
// scratch on the stack and only those under the threshold kept, so the
// compare is not a branch to mispredict. A batch of at most placeMax
// updates places its candidates and merges once. A longer one — a drain, a
// catch-up — collects up to cutMax candidates at a time, and cut orders
// only those that can be among the k smallest for one merge: the
// threshold tightens once per cutMax candidates, not once per placeMax.
func (s *KMV) UpdateBatch(batch []sketch.Update) {
	if len(batch) <= placeMax {
		var cand [placeMax]uint64
		n, limit := 0, s.limit()
		for _, u := range batch {
			v := s.h.Eval(u.Item)
			if cand[n] = v; v < limit {
				n++
			}
		}
		place(cand[:n])
		s.mergeValues(cand[:n])
		return
	}
	var cand [cutMax]uint64
	for len(batch) > 0 {
		n, i, limit := 0, 0, s.limit()
		for ; n < len(cand) && i < len(batch); i++ {
			v := s.h.Eval(batch[i].Item)
			if cand[n] = v; v < limit {
				n++
			}
		}
		batch = batch[i:]
		s.mergeValues(s.cut(cand[:n], bits.Len64(limit)))
	}
}

// limit is the threshold a hashed value must fall under to be a candidate:
// the k-th minimum once the sketch is full, and until then the field size,
// which every hashed value is under.
func (s *KMV) limit() uint64 {
	if len(s.vals) == s.k {
		return s.vals[0]
	}
	return hash.Prime
}

const (
	placeMax = 512  // the candidate scratch of a short batch: as many values as place has buckets
	cutMax   = 4096 // the candidate scratch of a long batch: as many values as cut has buckets
)

// place sorts c ascending. Hashed values under a threshold are uniform
// below their maximum, so one counting pass over their top 9 bits (relative
// to the OR of the values) puts each among a couple of others, and inserting
// them back into c in that order finishes. Short runs, long ones, and a
// bucket that overfills (an adversary who knows the hash can cluster
// values) are comparison-sorted: the worst case is one counting pass more.
func place(c []uint64) {
	if len(c) < 32 || len(c) > placeMax {
		slices.Sort(c)
		return
	}
	var or uint64
	for _, v := range c {
		or |= v
	}
	shift := max(bits.Len64(or)-9, 0)
	var at [placeMax]uint16 // per bucket: its count, then where its next value goes in buf
	for _, v := range c {
		if at[v>>shift]++; at[v>>shift] > 16 {
			slices.Sort(c)
			return
		}
	}
	var sum uint16
	for b, n := range at {
		at[b], sum = sum, sum+n
	}
	var buf [placeMax]uint64
	for _, v := range c {
		buf[at[v>>shift]] = v
		at[v>>shift]++
	}
	for i, v := range buf[:len(c)] {
		j := i
		for ; j > 0 && c[j-1] > v; j-- {
			c[j] = c[j-1]
		}
		c[j] = v
	}
}

// cut returns, ascending, the values of c a merge into the sketch can
// keep; every value of c is under 2^width. One counting pass over about as
// many buckets of that range as c has values puts them in order of bucket,
// so the lowest buckets that together hold k values hold the k smallest,
// and nothing above them can be among the k smallest of the union with the
// retained minima. Those buckets are placed as place does and the rest is
// dropped. A bucket that overfills, or a repeated value when the cut drops
// any, hands all of c to the comparison sort instead.
func (s *KMV) cut(c []uint64, width int) []uint64 {
	if len(c) <= placeMax {
		place(c)
		return c
	}
	// 1<<nb buckets, at most cutMax. Every v>>shift is under 1<<nb; the
	// masks below restate such ranges so the compiler drops its checks.
	nb := bits.Len(uint(len(c) - 1))
	shift := uint(max(width-nb, 0)) & 63
	var count [cutMax]uint32 // per bucket: its count, then where its next value goes in buf
	for _, v := range c {
		count[v>>shift%cutMax]++
	}
	kept, keep := 0, 1<<nb
	for b, n := range count[:keep] {
		if n > 16 {
			slices.Sort(c)
			return c
		}
		count[b], kept = uint32(kept), kept+int(n)
		if kept >= s.k {
			keep = b + 1
			break
		}
	}
	var buf [cutMax]uint64
	for _, v := range c {
		if b := v >> shift; b < uint64(keep) {
			buf[count[b]%cutMax] = v
			count[b]++
		}
	}
	repeat := false
	for i, v := range buf[:kept] {
		j := i
		for ; j > 0 && buf[j-1] > v; j-- {
			buf[j] = buf[j-1]
		}
		buf[j] = v
		repeat = repeat || j > 0 && buf[j-1] == v
	}
	if repeat && kept < len(c) { // the kept buckets may hold fewer than k distinct values
		slices.Sort(c)
		return c
	}
	return c[:copy(c, buf[:kept])]
}

// mergeValues folds ascending hashed values into the sketch, using c as
// scratch: an ascending pass finds what the k smallest distinct values of
// the union keep — the a smallest of vals and b of c, compacted to c[:b] —
// and a descending pass merges them in place.
func (s *KMV) mergeValues(c []uint64) {
	m, a, b := len(s.vals), 0, 0
	for _, v := range c {
		if a+b == s.k {
			break
		}
		for a < m && a+b < s.k && s.vals[m-1-a] < v {
			a++
		}
		if a+b < s.k && (a == m || s.vals[m-1-a] != v) && (b == 0 || c[b-1] != v) { // else over k, or a duplicate
			c[b] = v
			b++
		}
	}
	a = min(m, s.k-b)
	s.vals = s.grow(a + b)          // a+b >= m: a sketch never shrinks
	copy(s.vals[b:], s.vals[m-a:m]) // the survivors, to the tail
	// Largest first. The write index trails the read index by the number
	// of candidates left, so when none is left the rest is in place.
	for o, i, j := 0, b, b-1; j >= 0; o++ {
		if i < len(s.vals) && s.vals[i] > c[j] {
			s.vals[o] = s.vals[i]
			i++
		} else {
			s.vals[o] = c[j]
			j--
		}
	}
}

// grow extends vals to n ≤ k values. Past its capacity it moves to a new
// array of twice its length or n, whichever is more, and never more than k:
// a merge that fills the sketch allocates it once at its final size, and a
// sketch never holds a slot past k.
func (s *KMV) grow(n int) []uint64 {
	if n <= cap(s.vals) {
		return s.vals[:n]
	}
	vals := make([]uint64, n, min(s.k, max(n, 2*len(s.vals))))
	copy(vals, s.vals)
	return vals
}

// CoalesceInvariant implements sketch.CoalesceInvariant: deltas are
// ignored and a repeated item changes nothing.
func (s *KMV) CoalesceInvariant() bool { return true }

// Estimate returns the current distinct-count estimate.
func (s *KMV) Estimate() float64 {
	if len(s.vals) < s.k {
		// Fewer than k distinct hashes seen: the sketch is exact.
		return float64(len(s.vals))
	}
	uk := float64(s.vals[0]) / float64(hash.Prime)
	if uk == 0 {
		return float64(s.k)
	}
	return float64(s.k-1) / uk
}

// SpaceBytes charges 8 bytes per retained hash value and the hash seed.
func (s *KMV) SpaceBytes() int { return 8*len(s.vals) + s.h.SpaceBytes() }

// DuplicateInsensitive implements sketch.DuplicateInsensitive.
func (s *KMV) DuplicateInsensitive() bool { return true }

// Hash exposes the sketch's hash function. The seed-leakage experiments
// hand it to the adversary to demonstrate that plain KMV breaks when its
// (small) seed is known, while the PRF-wrapped variant of Section 10 does
// not.
func (s *KMV) Hash() hash.Poly { return s.h }

// Median aggregates independent estimators by the median of their
// estimates, boosting a constant-probability guarantee to 1−δ with
// O(log 1/δ) repetitions. It preserves duplicate-insensitivity when every
// member has it.
type Median struct {
	reps []sketch.Estimator
	ests []float64 // Estimate's selection scratch, one slot per repetition
}

// NewMedian builds r instances from factory (seeded 0..r−1 offsets of seed).
func NewMedian(r int, seed int64, factory func(seed int64) sketch.Estimator) *Median {
	if r < 1 {
		panic("f0: Median needs r >= 1")
	}
	m := &Median{ests: make([]float64, r)}
	for i := 0; i < r; i++ {
		m.reps = append(m.reps, factory(seed+int64(i)*1000003))
	}
	return m
}

// Update feeds every repetition.
func (m *Median) Update(item uint64, delta int64) {
	for _, r := range m.reps {
		r.Update(item, delta)
	}
}

// UpdateBatch implements sketch.BatchUpdater repetition-outer: one
// repetition's hash and minima stay hot while the batch streams through it.
func (m *Median) UpdateBatch(batch []sketch.Update) {
	for _, r := range m.reps {
		sketch.ApplyBatch(r, batch)
	}
}

// Estimate returns the median of the repetitions' estimates (the mean of
// the middle two for an even count). The robust wrappers call it after
// every update, so it selects in owned scratch and allocates nothing.
func (m *Median) Estimate() float64 {
	for i, r := range m.reps {
		m.ests[i] = r.Estimate()
	}
	return order.Median(m.ests)
}

// SpaceBytes sums the repetitions.
func (m *Median) SpaceBytes() int {
	total := 0
	for _, r := range m.reps {
		total += r.SpaceBytes()
	}
	return total
}

// DuplicateInsensitive holds iff every member is duplicate-insensitive.
func (m *Median) DuplicateInsensitive() bool {
	for _, r := range m.reps {
		d, ok := r.(sketch.DuplicateInsensitive)
		if !ok || !d.DuplicateInsensitive() {
			return false
		}
	}
	return true
}

// CoalesceInvariant implements sketch.CoalesceInvariant: it holds iff
// every member declares it.
func (m *Median) CoalesceInvariant() bool {
	for _, r := range m.reps {
		c, ok := r.(sketch.CoalesceInvariant)
		if !ok || !c.CoalesceInvariant() {
			return false
		}
	}
	return true
}

// TrackingParams holds the sizing of a strong-tracking KMV estimator.
type TrackingParams struct {
	K    int // minima per instance: Θ(1/ε²)
	Reps int // median repetitions: Θ(log(milestones/δ))
}

// TrackingSizing returns parameters for (ε, δ)-strong F0 tracking over a
// universe of size n. Correctness at the O(ε⁻¹ log n) milestones where F0
// grows by (1+ε/3) extends to all steps by monotonicity, so the median
// repetition count union-bounds over milestones rather than over all m
// steps. This replaces the optimal tracking algorithm of [6].
func TrackingSizing(eps, delta float64, n uint64) TrackingParams {
	return TrackingSizingLn(eps, math.Log(1/delta), n)
}

// TrackingSizingLn is TrackingSizing with the failure probability in log
// form, δ = exp(−lnInvDelta) — the form the computation-paths sizings
// need. It is the single source of the tracking-KMV sizing constants;
// TrackingSizing delegates here.
func TrackingSizingLn(eps, lnInvDelta float64, n uint64) TrackingParams {
	if eps <= 0 || eps >= 1 {
		panic("f0: need 0 < eps < 1")
	}
	k := int(math.Ceil(4/(eps*eps))) + 1
	milestones := math.Log(float64(n)+2)/math.Log1p(eps/3) + 1
	reps := 2*int(math.Ceil(0.35*(math.Log2(milestones)+math.Log2E*lnInvDelta))) + 1
	if reps < 3 {
		reps = 3
	}
	return TrackingParams{K: k, Reps: reps}
}

// NewTracking returns an (ε, δ)-strong-tracking F0 estimator (a Median of
// KMV instances sized by TrackingSizing).
func NewTracking(eps, delta float64, n uint64, seed int64) *Median {
	p := TrackingSizing(eps, delta, n)
	return NewMedian(p.Reps, seed, func(s int64) sketch.Estimator {
		return NewKMV(p.K, dist.Rand(s))
	})
}
