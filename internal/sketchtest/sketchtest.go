// Package sketchtest is a reusable conformance kit for the estimators in
// this repository: hand it a sketch.Factory (and, for mergeable types, a
// sketch.Codec) and it checks the contracts every estimator must honor —
// the update/estimate tracking contract, determinism under a fixed seed,
// duplicate-insensitivity, coalesce-invariance and the split coalesced
// update where declared, serialization round-trips, and the merge laws
// (zero identity, associativity, linearity) that the engine's
// snapshot/merge path and the server's /v1/merge endpoint rely on. The server's spec registry is run
// through the full battery by internal/server's conformance test, so a
// newly registered sketch type inherits every check from its single
// registry entry.
//
// Properties are implemented against a plain error-reporting core (Check)
// with a testing wrapper (Run) on top, so the kit is usable both from
// tests and from non-test harnesses.
package sketchtest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sketch"
	"repro/internal/stream"
)

// Harness describes one estimator type under test. Factory is the only
// required field; leave Codec nil for non-mergeable types and Truth nil to
// skip the accuracy check. The kit feeds insertion-only streams (the
// regime every estimator in the repository supports).
type Harness struct {
	// Name labels failures.
	Name string

	// Factory builds an instance from a seed. Instances built from the
	// same seed must behave identically; the determinism property enforces
	// exactly that.
	Factory sketch.Factory

	// Codec enables the serialization and merge-law properties. The merge
	// properties build all operands from the same seed, matching the
	// shared-randomness requirement of every Merge in the repository.
	Codec *sketch.Codec

	// Truth extracts the estimated statistic from the exact frequency
	// vector; when set, the accuracy property checks the final estimate
	// against it within Eps (relative, or additive when Additive is set).
	Truth    func(f *stream.Freq) float64
	Eps      float64
	Additive bool

	// Updates is the test stream length (default 800); Universe bounds the
	// item ids (default 512, small enough that streams contain duplicates).
	Updates  int
	Universe uint64

	// Seed fixes the kit's randomness (instance seeds and stream
	// contents). The zero value is a valid seed.
	Seed int64
}

func (h Harness) updates() int {
	if h.Updates <= 0 {
		return 800
	}
	return h.Updates
}

func (h Harness) universe() uint64 {
	if h.Universe == 0 {
		return 512
	}
	return h.Universe
}

// testStream returns a deterministic insertion-only stream with repeated
// items: salt distinguishes the disjoint-role streams of the merge
// properties.
func (h Harness) testStream(salt int64, m int) []stream.Update {
	rng := rand.New(rand.NewSource(h.Seed ^ salt<<17 ^ 0x5EED))
	out := make([]stream.Update, m)
	for i := range out {
		out[i] = stream.Update{Item: rng.Uint64() % h.universe(), Delta: 1}
	}
	return out
}

func feed(est sketch.Estimator, ups []stream.Update) {
	for _, u := range ups {
		est.Update(u.Item, u.Delta)
	}
}

// near reports |a−b| ≤ tol·max(|a|,|b|), treating NaNs as never near.
func near(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}

// A Property is one named conformance check.
type Property struct {
	Name  string
	check func(h Harness) error
}

// Properties returns the checks applicable to h, in execution order:
// the codec properties appear only when h.Codec is set, accuracy only
// when h.Truth is set.
func Properties(h Harness) []Property {
	props := []Property{
		{"contract", checkContract},
		{"determinism", checkDeterminism},
		{"duplicate-insensitive", checkDuplicateInsensitive},
		{"incremental-consistency", checkIncrementalConsistency},
		{"batch-consistency", checkBatchConsistency},
		{"coalesce-consistency", checkCoalesceConsistency},
		{"split-coalesce-consistency", checkSplitCoalesceConsistency},
	}
	if h.Codec != nil {
		props = append(props,
			Property{"marshal-roundtrip", checkMarshalRoundTrip},
			Property{"merge-zero-identity", checkMergeZeroIdentity},
			Property{"merge-associativity", checkMergeAssociativity},
			Property{"merge-linearity", checkMergeLinearity},
			Property{"merge-seed-mismatch", checkMergeSeedMismatch},
		)
	}
	if h.Truth != nil {
		props = append(props, Property{"accuracy", checkAccuracy})
	}
	return props
}

// Violation is one failed property.
type Violation struct {
	Property string
	Detail   string
}

func (v Violation) String() string { return v.Property + ": " + v.Detail }

// Check runs every applicable property and returns the violations.
func Check(h Harness) []Violation {
	if h.Factory == nil {
		return []Violation{{Property: "harness", Detail: "Harness.Factory is required"}}
	}
	var out []Violation
	for _, p := range Properties(h) {
		if err := p.check(h); err != nil {
			out = append(out, Violation{Property: p.Name, Detail: err.Error()})
		}
	}
	return out
}

// Run executes the conformance battery as one subtest per property.
func Run(t *testing.T, h Harness) {
	t.Helper()
	if h.Factory == nil {
		t.Fatalf("sketchtest: %s: Harness.Factory is required", h.Name)
	}
	for _, p := range Properties(h) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if err := p.check(h); err != nil {
				t.Errorf("%s: %v", h.Name, err)
			}
		})
	}
}

// checkContract enforces the tracking contract: a fresh instance answers a
// finite (zero-ish) estimate, the estimate stays finite after every
// update, and the instance reports positive space.
func checkContract(h Harness) error {
	est := h.Factory(h.Seed + 1)
	if e := est.Estimate(); math.IsNaN(e) || math.IsInf(e, 0) {
		return fmt.Errorf("fresh estimate is %v, want finite", e)
	}
	for i, u := range h.testStream(1, h.updates()) {
		est.Update(u.Item, u.Delta)
		if e := est.Estimate(); math.IsNaN(e) || math.IsInf(e, 0) {
			return fmt.Errorf("estimate after update %d is %v, want finite (tracking contract: queryable after every update)", i+1, e)
		}
	}
	if sp := est.SpaceBytes(); sp <= 0 {
		return fmt.Errorf("SpaceBytes = %d after %d updates, want > 0", sp, h.updates())
	}
	return nil
}

// checkDeterminism requires two same-seed instances to publish identical
// estimates at every step of the same stream — the property that makes
// seeds reproducible across servers (snapshot exchange) and experiments.
func checkDeterminism(h Harness) error {
	a, b := h.Factory(h.Seed+2), h.Factory(h.Seed+2)
	for i, u := range h.testStream(2, h.updates()) {
		a.Update(u.Item, u.Delta)
		b.Update(u.Item, u.Delta)
		ea, eb := a.Estimate(), b.Estimate()
		if ea != eb {
			return fmt.Errorf("same-seed instances diverged at update %d: %v vs %v", i+1, ea, eb)
		}
	}
	return nil
}

// checkDuplicateInsensitive verifies the declaration of estimators that
// claim re-inserting a seen item never changes their state: the estimate
// (and, when a codec is available, the full serialized state) must be
// bit-identical after re-inserts.
func checkDuplicateInsensitive(h Harness) error {
	est := h.Factory(h.Seed + 3)
	di, ok := est.(sketch.DuplicateInsensitive)
	if !ok || !di.DuplicateInsensitive() {
		return nil // property not declared; nothing to enforce
	}
	ups := h.testStream(3, h.updates())
	feed(est, ups)
	before := est.Estimate()
	var beforeState []byte
	if h.Codec != nil {
		var err error
		if beforeState, err = h.Codec.Marshal(est); err != nil {
			return fmt.Errorf("marshal before re-inserts: %v", err)
		}
	}
	for _, u := range ups[:min(64, len(ups))] {
		est.Update(u.Item, 1)
	}
	if after := est.Estimate(); after != before {
		return fmt.Errorf("declared duplicate-insensitive but estimate moved %v -> %v on re-inserts", before, after)
	}
	if beforeState != nil {
		afterState, err := h.Codec.Marshal(est)
		if err != nil {
			return fmt.Errorf("marshal after re-inserts: %v", err)
		}
		if !bytes.Equal(beforeState, afterState) {
			return fmt.Errorf("declared duplicate-insensitive but serialized state changed on re-inserts")
		}
	}
	return nil
}

// checkIncrementalConsistency pins the sketch.IncrementalEstimator
// contract: the estimate read from running aggregates must agree with a
// full recomputation (Resummate) at several points along the stream. The
// aggregate recurrences are exact on the integer-valued counters these
// sketches keep, so agreement is required to near-float64 precision —
// drift here means a broken recurrence, not rounding.
func checkIncrementalConsistency(h Harness) error {
	est := h.Factory(h.Seed + 11)
	inc, ok := est.(sketch.IncrementalEstimator)
	if !ok {
		return nil // property not declared; nothing to enforce
	}
	ups := h.testStream(11, h.updates())
	checkpoints := map[int]bool{len(ups) / 3: true, 2 * len(ups) / 3: true, len(ups): true}
	for i, u := range ups {
		est.Update(u.Item, u.Delta)
		if !checkpoints[i+1] {
			continue
		}
		fast := est.Estimate()
		inc.Resummate()
		if exact := est.Estimate(); !near(fast, exact, 1e-9) {
			return fmt.Errorf("after update %d: incremental estimate %v, recomputed estimate %v", i+1, fast, exact)
		}
	}
	return nil
}

// checkBatchConsistency requires sketch.BatchUpdater implementations to
// leave the sketch in exactly the state per-update feeding produces:
// same-seed instances fed the same stream through Update and through
// uneven UpdateBatch slices must publish identical estimates at every
// batch boundary.
func checkBatchConsistency(h Harness) error {
	a, b := h.Factory(h.Seed+12), h.Factory(h.Seed+12)
	bu, ok := b.(sketch.BatchUpdater)
	if !ok {
		return nil // property not declared; nothing to enforce
	}
	ups := h.testStream(12, h.updates())
	batch := make([]sketch.Update, 0, 64)
	for i := 0; i < len(ups); {
		n := 1 + int(ups[i].Item)%63
		if i+n > len(ups) {
			n = len(ups) - i
		}
		batch = batch[:0]
		for _, u := range ups[i : i+n] {
			a.Update(u.Item, u.Delta)
			batch = append(batch, sketch.Update{Item: u.Item, Delta: u.Delta})
		}
		bu.UpdateBatch(batch)
		i += n
		if ea, eb := a.Estimate(), b.Estimate(); ea != eb {
			return fmt.Errorf("after %d updates: per-update estimate %v, batch estimate %v", i, ea, eb)
		}
	}
	return nil
}

// checkCoalesceConsistency holds estimators that declare
// sketch.CoalesceInvariant to it: same-seed instances fed the stream in
// three batches, one raw and one with every batch coalesced first, must
// agree after each batch on the estimate, bit for bit, and (when a codec is
// available) on the serialized state. core.Switcher feeds declarers a
// coalesced lag buffer on the strength of this property alone.
func checkCoalesceConsistency(h Harness) error {
	a, b := h.Factory(h.Seed+13), h.Factory(h.Seed+13)
	raw, ok := a.(sketch.CoalesceInvariant)
	if !ok || !raw.CoalesceInvariant() {
		return nil // property not declared; nothing to enforce
	}
	ups := h.testStream(13, h.updates())
	var co sketch.Coalescer
	for third := 1; third <= 3; third++ {
		batch := ups[(third-1)*len(ups)/3 : third*len(ups)/3]
		raw.UpdateBatch(batch)
		b.(sketch.BatchUpdater).UpdateBatch(co.Coalesce(nil, batch))
		if ea, eb := a.Estimate(), b.Estimate(); math.Float64bits(ea) != math.Float64bits(eb) {
			return fmt.Errorf("after batch %d: raw estimate %v, coalesced estimate %v", third, ea, eb)
		}
		if h.Codec == nil {
			continue
		}
		sa, errA := h.Codec.Marshal(a)
		sb, errB := h.Codec.Marshal(b)
		if errA != nil || errB != nil {
			return fmt.Errorf("marshal: %v, %v", errA, errB)
		}
		if !bytes.Equal(sa, sb) {
			return fmt.Errorf("after batch %d: serialized state differs between raw and coalesced batches", third)
		}
	}
	return nil
}

// checkSplitCoalesceConsistency holds sketch.CoalescedUpdater implementers
// to their contract: same-seed instances fed the same three batches, one
// through UpdateBatch(raw) and one through UpdateCoalesced(Coalesce(raw),
// raw), must agree after each batch on the estimate, bit for bit, and (when
// a codec is available) on the serialized state. The batches repeat items
// under mixed-sign deltas, and the last one carries a delta of 2³¹, past
// any int32 counter. Past it only the state is held bit for bit: a squared
// counter of 2⁶² leaves float64 row aggregates to their order of addition,
// so the estimate need only agree to 1e-12. core.Lagged feeds implementers
// every catch-up in both forms on the strength of this property alone.
func checkSplitCoalesceConsistency(h Harness) error {
	a, b := h.Factory(h.Seed+14), h.Factory(h.Seed+14)
	split, ok := b.(sketch.CoalescedUpdater)
	if !ok {
		return nil // property not declared; nothing to enforce
	}
	ups := h.testStream(14, h.updates())
	for i := range ups {
		ups[i].Delta = []int64{1, 2, -1, -3}[i%4]
	}
	ups[5*len(ups)/6].Delta = 1 << 31
	var co sketch.Coalescer
	for third := 1; third <= 3; third++ {
		batch := ups[(third-1)*len(ups)/3 : third*len(ups)/3]
		a.(sketch.BatchUpdater).UpdateBatch(batch)
		split.UpdateCoalesced(co.Coalesce(nil, batch), batch)
		ea, eb := a.Estimate(), b.Estimate()
		if third < 3 && math.Float64bits(ea) != math.Float64bits(eb) || !near(ea, eb, 1e-12) {
			return fmt.Errorf("after batch %d: UpdateBatch estimate %v, UpdateCoalesced estimate %v", third, ea, eb)
		}
		if h.Codec == nil {
			continue
		}
		sa, errA := h.Codec.Marshal(a)
		sb, errB := h.Codec.Marshal(b)
		if errA != nil || errB != nil {
			return fmt.Errorf("marshal: %v, %v", errA, errB)
		}
		if !bytes.Equal(sa, sb) {
			return fmt.Errorf("after batch %d: serialized state differs between UpdateBatch and UpdateCoalesced", third)
		}
	}
	return nil
}

// checkMarshalRoundTrip requires Unmarshal(Marshal(x)) to reproduce x:
// equal estimate, equal space order, and a bit-identical re-encoding.
func checkMarshalRoundTrip(h Harness) error {
	est := h.Factory(h.Seed + 4)
	feed(est, h.testStream(4, h.updates()))
	data, err := h.Codec.Marshal(est)
	if err != nil {
		return fmt.Errorf("marshal: %v", err)
	}
	back, err := h.Codec.Unmarshal(data)
	if err != nil {
		return fmt.Errorf("unmarshal: %v", err)
	}
	if got, want := back.Estimate(), est.Estimate(); got != want {
		return fmt.Errorf("round-tripped estimate %v, want %v", got, want)
	}
	again, err := h.Codec.Marshal(back)
	if err != nil {
		return fmt.Errorf("re-marshal: %v", err)
	}
	if !bytes.Equal(data, again) {
		return fmt.Errorf("re-encoding differs from the original encoding (%d vs %d bytes)", len(again), len(data))
	}
	return nil
}

// checkMergeZeroIdentity requires a Fresh copy to be the identity of
// Merge on both sides: x ⊕ 0 = x and 0 ⊕ x = x.
func checkMergeZeroIdentity(h Harness) error {
	est := h.Factory(h.Seed + 5)
	feed(est, h.testStream(5, h.updates()))
	want := est.Estimate()

	zero, err := h.Codec.Fresh(est)
	if err != nil {
		return fmt.Errorf("fresh: %v", err)
	}
	if e := zero.Estimate(); e != 0 {
		return fmt.Errorf("fresh copy estimates %v, want 0", e)
	}
	if err := h.Codec.Merge(est, zero); err != nil {
		return fmt.Errorf("merge fresh into loaded: %v", err)
	}
	if got := est.Estimate(); !near(got, want, 1e-12) {
		return fmt.Errorf("x ⊕ 0 estimates %v, want %v", got, want)
	}

	// 0 ⊕ x via a round-tripped copy, so est itself stays a witness.
	data, err := h.Codec.Marshal(est)
	if err != nil {
		return fmt.Errorf("marshal: %v", err)
	}
	part, err := h.Codec.Unmarshal(data)
	if err != nil {
		return fmt.Errorf("unmarshal: %v", err)
	}
	base, err := h.Codec.Fresh(est)
	if err != nil {
		return fmt.Errorf("fresh: %v", err)
	}
	if err := h.Codec.Merge(base, part); err != nil {
		return fmt.Errorf("merge loaded into fresh: %v", err)
	}
	if got := base.Estimate(); !near(got, want, 1e-12) {
		return fmt.Errorf("0 ⊕ x estimates %v, want %v", got, want)
	}
	return nil
}

// thirds builds three same-seed instances fed disjoint-role streams, the
// operands of the merge-law checks.
func (h Harness) thirds(seed int64) [3]sketch.Estimator {
	var out [3]sketch.Estimator
	for i := range out {
		out[i] = h.Factory(seed)
		feed(out[i], h.testStream(int64(10+i), h.updates()/3+1))
	}
	return out
}

// clone round-trips an estimator through the codec, yielding an
// independent copy merges can consume.
func (h Harness) clone(est sketch.Estimator) (sketch.Estimator, error) {
	data, err := h.Codec.Marshal(est)
	if err != nil {
		return nil, err
	}
	return h.Codec.Unmarshal(data)
}

// checkMergeAssociativity requires (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) to agree.
func checkMergeAssociativity(h Harness) error {
	ops := h.thirds(h.Seed + 6)
	left, err := h.clone(ops[0])
	if err != nil {
		return err
	}
	b1, err := h.clone(ops[1])
	if err != nil {
		return err
	}
	if err := h.Codec.Merge(left, b1); err != nil {
		return fmt.Errorf("a ⊕ b: %v", err)
	}
	c1, err := h.clone(ops[2])
	if err != nil {
		return err
	}
	if err := h.Codec.Merge(left, c1); err != nil {
		return fmt.Errorf("(a ⊕ b) ⊕ c: %v", err)
	}

	bc, err := h.clone(ops[1])
	if err != nil {
		return err
	}
	c2, err := h.clone(ops[2])
	if err != nil {
		return err
	}
	if err := h.Codec.Merge(bc, c2); err != nil {
		return fmt.Errorf("b ⊕ c: %v", err)
	}
	right, err := h.clone(ops[0])
	if err != nil {
		return err
	}
	if err := h.Codec.Merge(right, bc); err != nil {
		return fmt.Errorf("a ⊕ (b ⊕ c): %v", err)
	}

	if l, r := left.Estimate(), right.Estimate(); !near(l, r, 1e-9) {
		return fmt.Errorf("(a ⊕ b) ⊕ c estimates %v, a ⊕ (b ⊕ c) estimates %v", l, r)
	}
	return nil
}

// checkMergeLinearity requires merging two same-seed instances fed s₁ and
// s₂ to match a single instance fed s₁ then s₂ — the property that makes
// the server's distributed snapshot → merge aggregation exact.
func checkMergeLinearity(h Harness) error {
	s1, s2 := h.testStream(20, h.updates()/2), h.testStream(21, h.updates()/2)
	a, b := h.Factory(h.Seed+7), h.Factory(h.Seed+7)
	feed(a, s1)
	feed(b, s2)
	whole := h.Factory(h.Seed + 7)
	feed(whole, s1)
	feed(whole, s2)
	if err := h.Codec.Merge(a, b); err != nil {
		return fmt.Errorf("merge: %v", err)
	}
	if got, want := a.Estimate(), whole.Estimate(); !near(got, want, 1e-6) {
		return fmt.Errorf("merged halves estimate %v, concatenated stream estimates %v", got, want)
	}
	return nil
}

// checkMergeSeedMismatch requires merging instances with different
// randomness to fail rather than silently combine incompatible state —
// the check behind the server's 409 on cross-seed snapshot exchange.
func checkMergeSeedMismatch(h Harness) error {
	a, b := h.Factory(h.Seed+8), h.Factory(h.Seed+9)
	feed(a, h.testStream(22, 64))
	feed(b, h.testStream(23, 64))
	if err := h.Codec.Merge(a, b); err == nil {
		return fmt.Errorf("merging instances built from different seeds succeeded; want a randomness-mismatch error")
	}
	return nil
}

// checkAccuracy feeds the test stream and compares the final estimate to
// the exact statistic within Eps.
func checkAccuracy(h Harness) error {
	est := h.Factory(h.Seed + 10)
	f := stream.NewFreq()
	for _, u := range h.testStream(30, h.updates()) {
		est.Update(u.Item, u.Delta)
		f.Apply(u)
	}
	got, want := est.Estimate(), h.Truth(f)
	if h.Additive {
		if d := math.Abs(got - want); d > h.Eps {
			return fmt.Errorf("estimate %v vs truth %v: additive error %v exceeds %v", got, want, d, h.Eps)
		}
		return nil
	}
	// Relative error is measured against the truth (not max(|got|,|want|),
	// which would make any ε ≥ 1 vacuously pass a zero estimate).
	if want == 0 {
		if math.Abs(got) > h.Eps {
			return fmt.Errorf("estimate %v with zero truth exceeds %v", got, h.Eps)
		}
		return nil
	}
	if rel := math.Abs(got-want) / math.Abs(want); rel > h.Eps {
		return fmt.Errorf("estimate %v vs truth %v: relative error %v exceeds %v", got, want, rel, h.Eps)
	}
	return nil
}
