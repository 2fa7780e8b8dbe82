package server

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sketch"
)

// TestFannedDrainMatchesSerial: a core.Lagged drain feeds the copies that
// owe its whole buffer from up to GOMAXPROCS goroutines. For every robust
// registry cell, one estimator fed under GOMAXPROCS 4 and its twin fed under
// GOMAXPROCS 1, where the drain is the serial loop, must agree bit for bit in
// estimate, switches and SpaceBytes after every chunk of a stream that
// crosses three drains with copies of λ = 128 still live: three of a folded
// buffer, whose drain waits for PendingCap distinct items, and four of a
// raw one. Under -race the fanned copies also show that they share nothing
// a drain writes.
func TestFannedDrainMatchesSerial(t *testing.T) {
	cfg := Config{Shards: 1, Eps: 0.5, Delta: 0.05, N: 1 << 16, Seed: 1, FlipBudget: 128}.withDefaults()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const chunk = 2048
	updates := 4*core.PendingCap + chunk
	cells := 0
	for _, name := range sketchNames() {
		for _, policy := range Policies() {
			for _, mt := range []TenantSpec{{}, {Model: "turnstile"}, {Model: "bounded_deletion", Alpha: 4}} {
				sp, ts, err := resolve(TenantSpec{Sketch: name, Policy: policy, Model: mt.Model, Alpha: mt.Alpha}, cfg)
				if err != nil || !sp.robust {
					continue
				}
				cells++
				t.Run(sp.Display()+"+"+ts.Model, func(t *testing.T) {
					serial, fanned := sp.factory(ts)(9), sp.factory(ts)(9)
					rng := rand.New(rand.NewSource(4))
					batch := make([]sketch.Update, chunk)
					for fed := 0; fed < updates; fed += chunk {
						for j := range batch {
							// Fresh items keep the statistic climbing, so copies
							// switch and drains find prefix-holders, and fill a
							// folded buffer; repeats give the coalescer work.
							item := uint64(fed + j)
							if rng.Intn(4) == 0 {
								item = uint64(rng.Intn(64))
							}
							batch[j] = sketch.Update{Item: item, Delta: 1}
						}
						runtime.GOMAXPROCS(1)
						sketch.ApplyBatch(serial, batch)
						runtime.GOMAXPROCS(4)
						sketch.ApplyBatch(fanned, batch)
						if a, b := serial.Estimate(), fanned.Estimate(); a != b {
							t.Fatalf("after %d updates: serial estimate %v, fanned %v", fed+chunk, a, b)
						}
						if a, b := robustness(serial), robustness(fanned); a != b {
							t.Fatalf("after %d updates: serial robustness %+v, fanned %+v", fed+chunk, a, b)
						}
						if a, b := serial.SpaceBytes(), fanned.SpaceBytes(); a != b {
							t.Fatalf("after %d updates: serial space %d, fanned %d", fed+chunk, a, b)
						}
					}
					// A drain fans out only over live copies that owe it;
					// paths keeps no lag buffer.
					if r := robustness(fanned); policy != "paths" && r.Copies < 2 {
						t.Fatalf("%+v at the end: too few live copies to fan a drain over", r)
					}
				})
			}
		}
	}
	if cells == 0 {
		t.Fatal("no robust cell resolved")
	}
}

// robustness is est's flip accounting, or the zero value if it keeps none.
func robustness(est sketch.Estimator) sketch.Robustness {
	if r, ok := est.(sketch.RobustnessReporter); ok {
		return r.Robustness()
	}
	return sketch.Robustness{}
}
