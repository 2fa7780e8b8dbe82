package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/f0"
	"repro/internal/robust"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// runAblation exercises two design choices:
//
//  1. ring vs dense sketch switching (Theorem 4.1's optimization);
//  2. rounding granularity vs instance burn rate.
func runAblation() {
	fmt.Println("--- 1. ring vs dense switching: copies needed ---")
	fmt.Printf("  %8s %12s %12s %12s\n", "ε", "ring", "dense n=2^20", "dense n=2^40")
	for _, eps := range []float64{0.1, 0.2, 0.4} {
		fmt.Printf("  %8.2f %12d %12d %12d\n", eps,
			core.RingCopies(eps),
			core.FlipBoundFp(0, eps/20, 1<<20, 1),
			core.FlipBoundFp(0, eps/20, 1<<40, 1))
	}
	fmt.Println("  (ring is n-independent — Theorem 4.1's log ε⁻¹ vs log n)")

	fmt.Println("\n--- 2. rounding granularity vs switch count (20000-distinct ramp) ---")
	fmt.Printf("  %8s %10s\n", "ε", "switches")
	exact := robust.F0Problem()
	exact.Inner = func(eps0, lnInvDelta float64, n uint64, kCap int, seed int64) sketch.Estimator {
		return f0.NewExact()
	}
	for _, eps := range []float64{0.1, 0.2, 0.4, 0.8} {
		sw, err := robust.Policy{Kind: robust.Ring}.Wrap(eps, 0.05, 1<<20, 1, exact)
		if err != nil {
			panic(err)
		}
		g := stream.NewDistinct(20000)
		for {
			u, ok := g.Next()
			if !ok {
				break
			}
			sw.Update(u.Item, u.Delta)
		}
		fmt.Printf("  %8.2f %10d\n", eps, sw.(sketch.RobustnessReporter).Robustness().Switches)
	}
}
