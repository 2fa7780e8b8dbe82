package f0_test

import (
	"runtime"
	"testing"

	"repro/internal/f0"
	"repro/internal/robust"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// TestSwitchingEnsembleResidentSet holds the line on what λ multiplies. One
// shard of the benchmark's kmv+switching tenant — 96 copies of a median of
// 17 KMVs — is built the way sketchd builds it; a freshly wrapped one holds
// next to nothing (it was 57.7 MiB of empty membership maps when every KMV
// was born with one), and after 40 000 updates, two lag-buffer drains and
// several switches in, the only indexed KMVs alive are the active copy's:
// trailing copies are fed by the batch alone.
func TestSwitchingEnsembleResidentSet(t *testing.T) {
	prob := robust.F0Problem()
	inner := prob.Inner
	var copies []*f0.Median
	prob.Inner = func(eps0, lnInvDelta float64, n uint64, kCap int, seed int64) sketch.Estimator {
		est := inner(eps0, lnInvDelta, n, kCap, seed)
		copies = append(copies, est.(*f0.Median))
		return est
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	est, err := robust.Policy{Kind: robust.Switching, Budget: 96}.Wrap(0.3, 0.025, 1<<20, 7, prob)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if live := int64(after.HeapAlloc) - int64(before.HeapAlloc); live > 1<<20 {
		t.Errorf("a fresh kmv+switching estimator holds %d bytes of live heap, want under 1 MiB", live)
	}
	if len(copies) != 96 {
		t.Fatalf("built %d copies, want 96", len(copies))
	}

	gen := stream.NewZipf(1<<20, 40000, 1.2, 31)
	for u, ok := gen.Next(); ok; u, ok = gen.Next() {
		est.Update(u.Item, u.Delta)
	}
	r := est.(sketch.RobustnessReporter).Robustness()
	if r.Exhausted || r.Switches < 3 || r.Switches != len(copies)-r.Copies {
		t.Fatalf("robustness %+v: want an unexhausted ensemble a few switches in", r)
	}
	// copies[:r.Switches] are spent and dropped; only this test still holds them.
	for i, c := range copies[r.Switches:] {
		indexed, reps := c.Indexed()
		if active := i == 0; (active && indexed != reps) || (!active && indexed != 0) {
			t.Errorf("copy %d (active is %d): %d of %d repetitions indexed", r.Switches+i, r.Switches, indexed, reps)
		}
	}
	runtime.KeepAlive(est)
}
