package robust_test

import (
	"fmt"

	"repro/internal/f0"
	"repro/internal/prf"
	"repro/internal/robust"
)

// Build a robust distinct-elements tracker and feed a stream whose later
// items could, in a real deployment, depend on the published estimates.
func ExampleNewF0() {
	est := robust.NewF0(0.3, 0.01, 1<<20, 42)
	for i := uint64(0); i < 3000; i++ {
		est.Update(i%1000, 1) // 1000 distinct items, repeated
	}
	e := est.Estimate()
	fmt.Println(e > 700 && e < 1300)
	// Output: true
}

// Track the L2 norm robustly; the estimate may be published after every
// update without invalidating the guarantee.
func ExampleNewFp() {
	est := robust.NewFp(2, 0.3, 0.01, 1<<16, 7)
	for i := uint64(0); i < 900; i++ {
		est.Update(i%30, 1) // 30 items × 30 occurrences: ‖f‖₂ = √(30·900) ≈ 164
	}
	e := est.Estimate()
	fmt.Println(e > 115 && e < 215)
	// Output: true
}

// Wrap a static KMV with the Section 10 PRF so that a polynomial-time
// adaptive client cannot bias it.
func ExampleNewCryptoF0() {
	inner := f0.NewKMV(1024, newRand())
	est, err := robust.NewCryptoF0(prf.NewFromSeed(1), inner)
	if err != nil {
		panic(err)
	}
	for i := uint64(0); i < 5000; i++ {
		est.Update(i, 1)
		est.Update(i, 1) // duplicates never change the state
	}
	e := est.Estimate()
	fmt.Println(e > 4500 && e < 5500)
	// Output: true
}
