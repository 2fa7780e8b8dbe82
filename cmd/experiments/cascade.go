package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cascaded"
	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/sketch"
)

// runCascade demonstrates the extension the paper sketches right after
// Proposition 3.4: cascaded matrix norms ‖A‖_(p,k) are monotone with
// polynomial range on insertion-only streams, so the robustification
// framework applies black-box. We measure the flip number against the
// bound and run the robust wrappers.
func runCascade() {
	const eps = 0.25
	rng := rand.New(rand.NewSource(7))
	fmt.Printf("cascaded norms ‖A‖_(p,k) on a 16x64 insertion-only matrix stream (ε=%.2f)\n\n", eps)
	fmt.Printf("  %8s %8s %12s %12s\n", "p", "k", "empir. flips", "Prop3.4 bound")
	for _, pk := range [][2]float64{{1, 2}, {2, 2}, {1.5, 2.5}} {
		p, k := pk[0], pk[1]
		e := cascaded.NewExact(p, k)
		var seq []float64
		r := rand.New(rand.NewSource(3))
		var maxCount float64 = 64
		for i := 0; i < 8000; i++ {
			e.Apply(cascaded.Update{Row: r.Uint64() % 16, Col: r.Uint64() % 64, Delta: 1})
			seq = append(seq, e.Norm())
		}
		fmt.Printf("  %8.1f %8.1f %12d %12d\n", p, k,
			core.FlipNumber(seq, eps), cascaded.FlipBound(p, k, eps, 16, 64, maxCount))
	}

	fmt.Println("\nrobust (1,2)-cascade (switching over exact trackers):")
	rob, err := robust.Policy{Kind: robust.Ring}.Wrap(eps, 0.05, 16*64, 1, cascaded.Problem(1, 2, 64))
	if err != nil {
		panic(err)
	}
	truth := cascaded.NewExact(1, 2)
	worst := 0.0
	for i := 0; i < 6000; i++ {
		row, col := rng.Uint64()%16, rng.Uint64()%64
		rob.Update(row*64+col, 1)
		truth.Apply(cascaded.Update{Row: row, Col: col, Delta: 1})
		if i > 50 {
			if e := math.Abs(rob.Estimate()-truth.Norm()) / truth.Norm(); e > worst {
				worst = e
			}
		}
	}
	fmt.Printf("  max rel.err %.1f%% over 6000 updates (budget ε=%.0f%%), switches %d\n",
		100*worst, 100*eps, rob.(sketch.RobustnessReporter).Robustness().Switches)

	fmt.Println("\nrobust (2,2)-cascade (fully sketched — flattens to F2):")
	rob22 := robust.NewFp(2, eps, 0.05, 1<<16, 3)
	truth22 := cascaded.NewExact(2, 2)
	worst = 0.0
	for i := 0; i < 8000; i++ {
		row, col := rng.Uint64()%32, rng.Uint64()%128
		rob22.Update(cascaded.Key(row, col), 1)
		truth22.Apply(cascaded.Update{Row: row, Col: col, Delta: 1})
		if i > 100 {
			if e := math.Abs(rob22.Estimate()-truth22.Norm()) / truth22.Norm(); e > worst {
				worst = e
			}
		}
	}
	fmt.Printf("  max rel.err %.1f%% over 8000 updates (budget 2ε=%.0f%%), space %d KiB\n",
		100*worst, 200*eps, rob22.SpaceBytes()/1024)
}
