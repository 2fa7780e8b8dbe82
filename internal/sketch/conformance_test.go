package sketch_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/entropy"
	"repro/internal/f0"
	"repro/internal/fp"
	"repro/internal/heavyhitters"
	"repro/internal/prf"
	"repro/internal/robust"
	"repro/internal/sketch"
)

// Compile-time conformance: every estimator in the repository satisfies
// the shared interfaces it claims.
var (
	_ sketch.Estimator = (*f0.Exact)(nil)
	_ sketch.Estimator = (*f0.KMV)(nil)
	_ sketch.Estimator = (*f0.Median)(nil)
	_ sketch.Estimator = (*f0.Alg2)(nil)
	_ sketch.Estimator = (*fp.DenseAMS)(nil)
	_ sketch.Estimator = (*fp.F2Sketch)(nil)
	_ sketch.Estimator = (*fp.Indyk)(nil)
	_ sketch.Estimator = (*fp.MaxStable)(nil)
	_ sketch.Estimator = (*heavyhitters.CountSketch)(nil)
	_ sketch.Estimator = (*entropy.Exact)(nil)
	_ sketch.Estimator = (*entropy.CC)(nil)
	_ sketch.Estimator = (*robust.MappedF0)(nil)
	_ sketch.Estimator = (*robust.HeavyHitters)(nil)

	_ sketch.PointQuerier = (*heavyhitters.CountSketch)(nil)

	_ sketch.DuplicateInsensitive = (*f0.Exact)(nil)
	_ sketch.DuplicateInsensitive = (*f0.KMV)(nil)
	_ sketch.DuplicateInsensitive = (*f0.Median)(nil)
	_ sketch.DuplicateInsensitive = (*f0.Alg2)(nil)
)

// TestEstimatorContractSmoke drives every concrete estimator through the
// minimal Estimator contract: fresh instances answer 0-ish, accept
// updates, and report positive space afterwards.
func TestEstimatorContractSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	crypto, err := robust.NewCryptoF0(prf.NewFromSeed(1), f0.NewKMV(16, rng))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := robust.NewOracleF0(prf.NewOracle(1), f0.NewKMV(16, rng))
	if err != nil {
		t.Fatal(err)
	}
	ests := map[string]sketch.Estimator{
		"f0.Exact":       f0.NewExact(),
		"f0.KMV":         f0.NewKMV(16, rng),
		"f0.Alg2":        f0.NewAlg2(f0.Alg2Params{B: 16, D: 8}, 1),
		"fp.F2Sketch":    fp.NewF2(fp.F2Sizing{Rows: 3, Width: 16}, rng),
		"fp.Indyk":       fp.NewIndyk(1, 16, rng),
		"fp.MaxStable":   fp.NewMaxStable(3, 4, 2, 16, rng),
		"hh.CountSketch": heavyhitters.NewCountSketch(heavyhitters.Sizing{Rows: 3, Width: 16}, rng),
		"entropy.Exact":  entropy.NewExact(),
		"entropy.CC":     entropy.NewCC(entropy.CCSizing{Groups: 3, Per: 8}, rng),
		"robust.Crypto":  crypto,
		"robust.Oracle":  oracle,
	}
	for name, e := range ests {
		if got := e.Estimate(); got != 0 {
			t.Errorf("%s: fresh estimate = %v, want 0", name, got)
		}
		for i := uint64(0); i < 32; i++ {
			e.Update(i, 1)
		}
		if e.SpaceBytes() <= 0 {
			t.Errorf("%s: SpaceBytes = %d after updates, want > 0", name, e.SpaceBytes())
		}
	}
}

// TestKernelSurfacesStayApart: CountSketch holds its counters as an
// F2Sketch, and every optional surface is probed by type assertion, so
// neither may pick up the other's. CountSketch's candidate pool depends on
// arrival order — were it CoalesceInvariant, core.Lagged would feed it
// coalesced lag buffers; were F2Sketch a PointQuerier or TopKQuerier, the
// server's point gate, engine.QueryBatch and the frozen ring would answer
// per-coordinate reads from a sketch that has no candidate pool.
func TestKernelSurfacesStayApart(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cs sketch.Estimator = heavyhitters.NewCountSketch(heavyhitters.Sizing{Rows: 3, Width: 16}, rng)
	if _, ok := cs.(sketch.CoalesceInvariant); ok {
		t.Error("CountSketch declares sketch.CoalesceInvariant")
	}
	var f2 sketch.Estimator = fp.NewF2(fp.F2Sizing{Rows: 3, Width: 16}, rng)
	if _, ok := f2.(sketch.PointQuerier); ok {
		t.Error("F2Sketch satisfies sketch.PointQuerier")
	}
	if _, ok := f2.(sketch.TopKQuerier); ok {
		t.Error("F2Sketch satisfies sketch.TopKQuerier")
	}
}

// TestCoalescer pins the routine the engine's shard workers and the
// Switcher's drain share: first-occurrence order, net deltas, zero-sum
// entries kept, in place or into a separate buffer, index reused.
func TestCoalescer(t *testing.T) {
	batch := []sketch.Update{{Item: 7, Delta: 2}, {Item: 3, Delta: 1}, {Item: 7, Delta: -2}, {Item: 9, Delta: 4}, {Item: 3, Delta: 5}}
	want := []sketch.Update{{Item: 7, Delta: 0}, {Item: 3, Delta: 6}, {Item: 9, Delta: 4}}
	var co sketch.Coalescer
	for _, dst := range [][]sketch.Update{nil, make([]sketch.Update, 0, 8), nil} {
		b := append([]sketch.Update(nil), batch...)
		if dst == nil {
			dst = b[:0]
		}
		if got := co.Coalesce(dst, b); !slices.Equal(got, want) {
			t.Fatalf("coalesced to %v, want %v", got, want)
		}
	}
}
