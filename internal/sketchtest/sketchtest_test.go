package sketchtest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/f0"
	"repro/internal/fp"
	"repro/internal/heavyhitters"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// TestKitPassesWellBehavedSketches runs the battery against two known-good
// estimators — a mergeable linear sketch and a duplicate-insensitive F0
// sketch — as the kit's own smoke test (the full registry sweep lives in
// internal/server's conformance test).
func TestKitPassesWellBehavedSketches(t *testing.T) {
	Run(t, Harness{
		Name: "fp.F2Sketch",
		Factory: func(seed int64) sketch.Estimator {
			return fp.NewF2(fp.F2Sizing{Rows: 5, Width: 128}, rand.New(rand.NewSource(seed)))
		},
		Codec: sketch.CodecFor[fp.F2Sketch]("f2"),
		Truth: func(f *stream.Freq) float64 { return f.Fp(2) },
		Eps:   0.2,
	})
}

// brokenTracking returns NaN once the stream passes 10 updates.
type brokenTracking struct{ n int }

func (b *brokenTracking) Update(uint64, int64) { b.n++ }
func (b *brokenTracking) Estimate() float64 {
	if b.n > 10 {
		return math.NaN()
	}
	return float64(b.n)
}
func (b *brokenTracking) SpaceBytes() int { return 8 }

// nondeterministic ignores its seed and draws fresh global randomness.
type nondeterministic struct{ off float64 }

func (n *nondeterministic) Update(uint64, int64) {}
func (n *nondeterministic) Estimate() float64    { return n.off }
func (n *nondeterministic) SpaceBytes() int      { return 8 }

// falseDI claims duplicate-insensitivity but counts every update.
type falseDI struct{ n float64 }

func (f *falseDI) Update(uint64, int64)       { f.n++ }
func (f *falseDI) Estimate() float64          { return f.n }
func (f *falseDI) SpaceBytes() int            { return 8 }
func (f *falseDI) DuplicateInsensitive() bool { return true }

// falseCoalesce claims coalesce-invariance but decays its state on every
// update, so merging an item's repeats into one entry changes the outcome.
type falseCoalesce struct{ acc float64 }

func (f *falseCoalesce) Update(_ uint64, delta int64) { f.acc = f.acc/2 + float64(delta) }
func (f *falseCoalesce) Estimate() float64            { return f.acc }
func (f *falseCoalesce) SpaceBytes() int              { return 8 }
func (f *falseCoalesce) CoalesceInvariant() bool      { return true }
func (f *falseCoalesce) UpdateBatch(batch []sketch.Update) {
	for _, u := range batch {
		f.Update(u.Item, u.Delta)
	}
}

// falseSplit implements sketch.CoalescedUpdater but decays its state on
// every update, so the net batch it feeds itself lands elsewhere than the
// raw one.
type falseSplit struct{ falseCoalesce }

func (f *falseSplit) CoalesceInvariant() bool { return false }
func (f *falseSplit) UpdateCoalesced(net, _ []sketch.Update) {
	f.UpdateBatch(net)
}

// TestKitCatchesViolations feeds deliberately broken estimators through
// Check and requires the matching property to fail — the kit is only
// trustworthy if it actually rejects bad implementations.
func TestKitCatchesViolations(t *testing.T) {
	cases := []struct {
		name     string
		h        Harness
		property string
	}{
		{
			name: "non-finite tracking estimate",
			h: Harness{
				Name:    "brokenTracking",
				Factory: func(int64) sketch.Estimator { return &brokenTracking{} },
			},
			property: "contract",
		},
		{
			name: "seed ignored",
			h: Harness{
				Name: "nondeterministic",
				Factory: func(int64) sketch.Estimator {
					return &nondeterministic{off: rand.Float64()}
				},
			},
			property: "determinism",
		},
		{
			name: "false duplicate-insensitivity claim",
			h: Harness{
				Name:    "falseDI",
				Factory: func(int64) sketch.Estimator { return &falseDI{} },
			},
			property: "duplicate-insensitive",
		},
		{
			name: "false coalesce-invariance claim",
			h: Harness{
				Name:    "falseCoalesce",
				Factory: func(int64) sketch.Estimator { return &falseCoalesce{} },
			},
			property: "coalesce-consistency",
		},
		{
			name: "false split coalesced update",
			h: Harness{
				Name:    "falseSplit",
				Factory: func(int64) sketch.Estimator { return &falseSplit{} },
			},
			property: "split-coalesce-consistency",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := Check(tc.h)
			for _, v := range vs {
				if v.Property == tc.property {
					return
				}
			}
			t.Errorf("Check found %v; want a %q violation", vs, tc.property)
		})
	}
}

// TestKitMergePropertiesExerciseKMV runs just the codec battery against
// KMV, whose merge is a set union (exactly linear) and whose
// duplicate-insensitivity is declared — covering the property paths the
// F2 smoke test alone would leave cold.
func TestKitMergePropertiesExerciseKMV(t *testing.T) {
	Run(t, Harness{
		Name: "f0.KMV",
		Factory: func(seed int64) sketch.Estimator {
			return f0.NewKMV(64, rand.New(rand.NewSource(seed)))
		},
		Codec: sketch.CodecFor[f0.KMV]("kmv"),
	})
}

// TestKitSplitPropertyExercisesCountSketch holds CountSketch, the one
// sketch.CoalescedUpdater, to its contract at a width whose candidate pool
// prunes within the kit's stream, so the pool's arrival order is at stake.
func TestKitSplitPropertyExercisesCountSketch(t *testing.T) {
	Run(t, Harness{
		Name: "heavyhitters.CountSketch",
		Factory: func(seed int64) sketch.Estimator {
			return heavyhitters.NewCountSketch(heavyhitters.Sizing{Rows: 5, Width: 16}, rand.New(rand.NewSource(seed)))
		},
		Codec: sketch.CodecFor[heavyhitters.CountSketch]("countsketch"),
	})
}

// TestKitBatchPropertiesExerciseMedian holds the median-of-KMV ensemble —
// what the robust F0 cells copy; no registry entry hosts it bare — to its
// batch and coalesce declarations.
func TestKitBatchPropertiesExerciseMedian(t *testing.T) {
	Run(t, Harness{
		Name: "f0.Median",
		Factory: func(seed int64) sketch.Estimator {
			return f0.NewMedian(5, seed, func(s int64) sketch.Estimator {
				return f0.NewKMV(32, rand.New(rand.NewSource(s)))
			})
		},
	})
}
