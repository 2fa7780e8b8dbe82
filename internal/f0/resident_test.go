package f0_test

import (
	"runtime"
	"testing"

	"repro/internal/f0"
	"repro/internal/robust"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// liveHeap is the heap in use after a forced collection.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestSwitchingEnsembleResidentSet holds the line on what λ multiplies. One
// shard of the benchmark's kmv+switching tenant — 96 copies of a median of
// 17 KMVs — is built the way sketchd builds it: a freshly wrapped one holds
// next to nothing, and 40 000 updates and several switches in (too few
// distinct items to drain its folded lag buffer), it is still an
// unexhausted ensemble shedding a copy a switch.
func TestSwitchingEnsembleResidentSet(t *testing.T) {
	before := liveHeap()
	est, err := robust.Policy{Kind: robust.Switching, Budget: 96}.Wrap(0.3, 0.025, 1<<20, 7, robust.F0Problem())
	if err != nil {
		t.Fatal(err)
	}
	if live := liveHeap() - before; live > 1<<20 {
		t.Errorf("a fresh kmv+switching estimator holds %d bytes of live heap, want under 1 MiB", live)
	}
	gen := stream.NewZipf(1<<20, 40000, 1.2, 31)
	for u, ok := gen.Next(); ok; u, ok = gen.Next() {
		est.Update(u.Item, u.Delta)
	}
	if r := est.(sketch.RobustnessReporter).Robustness(); r.Exhausted || r.Switches < 3 || r.Switches != 96-r.Copies {
		t.Fatalf("robustness %+v: want an unexhausted ensemble a few switches in", r)
	}
}

// TestDeclaredSpaceIsResident: SpaceBytes is what admission and every
// reported byte count trust, so the heap an F0 estimator actually keeps
// after a stream must sit within [1.0, 1.35] × its declaration: the kmv
// ensembles after 400 000 Zipf(1.2) updates, Algorithm 2 inside its exact
// prefix and well past it, and the exact counter at 200 000 keys.
func TestDeclaredSpaceIsResident(t *testing.T) {
	wrap := func(pol robust.Policy) func() sketch.Estimator {
		return func() sketch.Estimator {
			est, err := pol.Wrap(0.3, 0.025, 1<<20, 7, robust.F0Problem())
			if err != nil {
				t.Fatal(err)
			}
			return est
		}
	}
	alg2 := func() sketch.Estimator { return f0.NewAlg2(f0.Alg2Sizing(0.2, 40, 1<<20), 5) }
	for _, c := range []struct {
		name  string
		build func() sketch.Estimator
		gen   stream.Generator
	}{
		{"kmv+switching", wrap(robust.Policy{Kind: robust.Switching, Budget: 96}), stream.NewZipf(1<<20, 400000, 1.2, 31)},
		{"kmv+ring", wrap(robust.Policy{Kind: robust.Ring}), stream.NewZipf(1<<20, 400000, 1.2, 31)},
		{"alg2/exact prefix", alg2, stream.NewDistinct(3000)},
		{"alg2/levels", alg2, stream.NewDistinct(200000)},
		{"exact", func() sketch.Estimator { return f0.NewExact() }, stream.NewDistinct(200000)},
	} {
		before := liveHeap()
		est := c.build()
		for u, ok := c.gen.Next(); ok; u, ok = c.gen.Next() {
			est.Update(u.Item, u.Delta)
		}
		live, declared := liveHeap()-before, est.SpaceBytes()
		if ratio := float64(live) / float64(declared); ratio < 1.0 || ratio > 1.35 {
			t.Errorf("%s: %d bytes live against %d declared (%.2f×), want within [1.0, 1.35]", c.name, live, declared, ratio)
		}
		runtime.KeepAlive(est)
	}
}
