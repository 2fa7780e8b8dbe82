package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/f0"
	"repro/internal/game"
	"repro/internal/hash"
	"repro/internal/robust"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// runFastF0 reproduces the Theorem 1.2 motivation: at the tiny failure
// probabilities the computation-paths reduction demands, the classic
// "repeat log(1/δ) times and take the median" estimator pays per-update
// time Θ(log 1/δ), while the paper's Algorithm 2 pays only amortized
// polyloglog — its per-level work is O(1) and its d-wise hashing goes
// multipoint (Proposition 5.3) from the degree where that is faster. The
// second table times the two hashings themselves, so the degree at which
// f0.NewAlg2 switches can be checked on the host it runs on.
func runFastF0() {
	const n = 1 << 20
	const probe = 30000
	perUpdate := func(est sketch.Estimator) float64 {
		start := time.Now()
		for i := 0; i < probe; i++ {
			est.Update(uint64(i)*2654435761, 1)
		}
		return float64(time.Since(start).Nanoseconds()) / probe
	}
	fmt.Printf("update time as δ₀ shrinks (ns/update over %d updates, ε = 0.2, n = 2^20):\n", probe)
	fmt.Printf("  %12s %16s %16s\n", "ln(1/δ₀)", "median-of-KMV", "Algorithm 2")
	for _, l := range []float64{10, 40, 160, 640} {
		med := f0.NewMedian(core.MedianRepsForLn(l), 1, func(seed int64) sketch.Estimator {
			return f0.NewKMV(256, rand.New(rand.NewSource(seed)))
		})
		p := f0.Alg2Sizing(0.2, l, n)
		alg := f0.NewAlg2(p, 2)
		path := "Horner"
		if !alg.DuplicateInsensitive() { // only an instance that buffers a batch says so
			path = "multipoint"
		}
		fmt.Printf("  %12.0f %16.0f %16.0f   (%s, B=%d, d=%d)\n", l, perUpdate(med), perUpdate(alg), path, p.B, p.D)
	}

	fmt.Println("\nhashing one item with a degree-d polynomial over GF(2^61−1) (ns/item):")
	fmt.Printf("  %8s %14s %24s\n", "d", "Horner (Eval)", "multipoint (EvalMulti)")
	for _, d := range []int{32, 256, 1024, 4096, 8192, 16384} {
		h := hash.NewPoly(d, rand.New(rand.NewSource(3)))
		xs := make([]uint64, d)
		for i := range xs {
			xs[i] = uint64(i) * 2654435761
		}
		rounds := max(1, 32768/d) // batches of d, so the small degrees run warm
		var sink uint64
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for _, x := range xs {
				sink += h.Eval(x)
			}
		}
		horner := time.Since(start)
		start = time.Now()
		for r := 0; r < rounds; r++ {
			sink += h.EvalMulti(xs)[0]
		}
		multi := time.Since(start)
		_ = sink
		items := float64(rounds * d)
		fmt.Printf("  %8d %14.0f %24.0f\n", d, float64(horner.Nanoseconds())/items, float64(multi.Nanoseconds())/items)
	}
	fmt.Println("\n(the median approach pays Θ(log 1/δ) per update; Algorithm 2's level lists")
	fmt.Println(" pay O(1) plus hashing. Over GF(2^61−1) — which has no NTT-friendly root of")
	fmt.Println(" unity — Karatsuba multipoint hashing overtook Horner's rule between d = 4096")
	fmt.Println(" and 8192 where f0.NewAlg2's constant was measured, so it batches from d = 8192:")
	fmt.Println(" below the Theorem 1.2 degree at ε = 0.1, n = 2^20 (13358), above the ones a")
	fmt.Println(" laptop-scale cell builds.)")
}

// runCrossover compares the space formulas of sketch switching
// (Theorem 4.1) and computation paths (Theorem 4.2) for Fp estimation as
// the target failure probability shrinks — the paper's claim that each
// regime has a winner, with computation paths taking over at
// δ < n^{−(1/ε)·log n}.
func runCrossover() {
	const eps = 0.1
	logn := 20.0 // n = 2^20
	le := math.Log2(1 / eps)
	loglog := math.Log2(logn)

	switching := func(log2InvDelta float64) float64 {
		// Θ(ε⁻³ log n log ε⁻¹ (log ε⁻¹ + log δ⁻¹ + log log n)) — Thm 4.1.
		return math.Pow(eps, -3) * logn * le * (le + log2InvDelta + loglog)
	}
	paths := func(log2InvDelta float64) float64 {
		// Θ(ε⁻² log n log δ⁻¹), valid once δ < n^{−(1/ε) log n} — Thm 4.2.
		return math.Pow(eps, -2) * logn * log2InvDelta
	}
	threshold := (1 / eps) * logn * logn // log2(1/δ) at δ = n^{−(1/ε)·log n}

	fmt.Printf("Fp space formulas (bits), ε = %.2f, n = 2^20\n", eps)
	fmt.Printf("(computation paths must union-bound over all output sequences, so it\n")
	fmt.Printf(" always pays log2(1/δ₀) ≥ %.0f even when the target δ is mild)\n\n", threshold)
	fmt.Printf("  %14s %18s %18s %10s\n", "log2(1/δ)", "switching (Thm4.1)", "comp. paths (4.2)", "winner")
	for _, l := range []float64{7, 64, 512, 2048, threshold, 4 * threshold, 32 * threshold} {
		s := switching(l)
		p := paths(math.Max(l, threshold))
		winner := "switching"
		if p < s {
			winner = "paths"
		}
		fmt.Printf("  %14.0f %18.2e %18.2e %10s\n", l, s, p, winner)
	}
	fmt.Println("\n(switching wins at moderate δ; computation paths takes over in the tiny-δ")
	fmt.Println(" regime by a Θ(ε⁻¹ log ε⁻¹) factor — the Theorem 1.4 vs 1.5 claim)")
}

// runFpBig exhibits the n^{1−2/p} width scaling of the p > 2 estimator
// (Theorem 1.7) and its end-to-end accuracy through the computation-paths
// wrapper.
func runFpBig() {
	fmt.Println("per-repetition sketch width Θ(n^{1−2/p}):")
	fmt.Printf("  %8s %12s %12s %12s\n", "p", "n=2^10", "n=2^16", "n=2^20")
	for _, p := range []float64{2.1, 2.5, 3, 4, 6} {
		fmt.Printf("  %8.1f %12d %12d %12d\n", p,
			widthFor(p, 1<<10), widthFor(p, 1<<16), widthFor(p, 1<<20))
	}

	fmt.Println("\nrobust F3 tracking on a Zipf stream (computation paths, ε = 0.4):")
	alg, err := robust.Policy{Kind: robust.Paths, StreamLen: 10000, MaxCount: 4000}.Wrap(0.4, 0.001, 4096, 13, robust.FpBigProblem(3, 100, 3))
	if err != nil {
		panic(err)
	}
	res := game.Run(alg,
		game.FromGenerator(stream.NewZipf(4096, 8000, 1.5, 15)),
		func(f *stream.Freq) float64 { return f.Lp(3) },
		game.RelCheck(0.8), game.Config{Warmup: 200})
	fmt.Printf("  %d updates, max rel.err %.1f%%, broken: %v, space %d KiB\n",
		res.Steps, 100*res.MaxRelErr, res.Broken, alg.SpaceBytes()/1024)
}

func widthFor(p float64, n uint64) int {
	return int(math.Ceil(8 * math.Pow(float64(n), 1-2/p)))
}

// runTurnstile exercises Theorem 1.6 on the canonical insert-then-delete
// hard instance, with the flip budget λ measured from the stream class.
// The estimator is assembled the way a sketchd tenant is: a declared
// stream model picks the problem (LpProblemFor) and a policy wraps it.
func runTurnstile() {
	const eps = 0.5
	const n = 1500
	seq := stream.Trajectory(stream.Collect(stream.NewInsertDelete(n), 0),
		func(f *stream.Freq) float64 { return f.Fp(2) })
	lambda := core.FlipNumber(seq, eps/20) + 8
	fmt.Printf("insert-then-delete over %d items: F2 flip number (ε/20) = %d\n", n, lambda-8)
	prob, err := robust.LpProblemFor(2, robust.TurnstileModel(lambda))
	if err != nil {
		panic(err)
	}
	alg, err := robust.Policy{Kind: robust.Paths, StreamLen: 2 * n, KCap: 3000}.Wrap(eps, 0.001, n, 7, prob)
	if err != nil {
		panic(err)
	}
	res := game.Run(alg, game.FromGenerator(stream.NewInsertDelete(n)),
		func(f *stream.Freq) float64 { return f.Fp(2) },
		game.RelCheck(2*eps), game.Config{Warmup: 50})
	fmt.Printf("robust turnstile F2 (model %s): %d updates, max rel.err %.1f%%, space %d KiB\n",
		prob.Model, res.Steps, 100*res.MaxRelErr, alg.SpaceBytes()/1024)
	fmt.Println("(failures near full cancellation are excluded by the warmup/rounding floor)")
}

// runBoundedDeletion sweeps α for Theorem 1.11: the flip budget — and so
// the space — grows linearly in α, while accuracy holds throughout. Like
// runTurnstile, each estimator is the model-API composition a
// model=bounded_deletion tenant hosts.
func runBoundedDeletion() {
	const eps, p = 0.5, 1.0
	fmt.Printf("robust F1 on α-bounded-deletion streams (ε = %.1f):\n\n", eps)
	fmt.Printf("  %6s %14s %12s %14s %10s\n", "α", "flip bound", "max rel.err", "space (KiB)", "broken")
	for _, alpha := range []float64{1.5, 2, 4, 8} {
		lambda := core.FlipBoundBoundedDeletion(p, alpha, eps, 256, 4000)
		prob, err := robust.LpProblemFor(p, robust.BoundedDeletionModel(alpha))
		if err != nil {
			panic(err)
		}
		alg, err := robust.Policy{Kind: robust.Paths, StreamLen: 4000, MaxCount: 4000, KCap: 2500}.Wrap(eps, 0.001, 256, 17, prob)
		if err != nil {
			panic(err)
		}
		res := game.Run(alg,
			game.FromGenerator(stream.NewBoundedDeletion(256, 4000, p, alpha, 0.4, 19)),
			func(f *stream.Freq) float64 { return f.Fp(p) },
			game.RelCheck(2*eps), game.Config{Warmup: 100})
		fmt.Printf("  %6.1f %14d %11.1f%% %14d %10v\n",
			alpha, lambda, 100*res.MaxRelErr, alg.SpaceBytes()/1024, res.Broken)
	}
}

// runEntropy runs the Theorem 1.10 robust entropy estimator across
// workloads of very different entropy levels.
func runEntropy() {
	const epsBits = 1.0
	fmt.Printf("robust entropy (additive ε = %.1f bits, flip budget 30):\n\n", epsBits)
	fmt.Printf("  %-18s %12s %12s %12s %10s\n", "workload", "true H", "estimate", "max add.err", "broken")
	type wl struct {
		name string
		gen  stream.Generator
	}
	for _, w := range []wl{
		{"uniform-256", stream.NewUniform(256, 1500, 5)},
		{"zipf(1.3)", stream.NewZipf(1<<10, 1500, 1.3, 7)},
		{"zipf(2.0) skewed", stream.NewZipf(1<<10, 1500, 2.0, 9)},
	} {
		alg := robust.NewEntropy(epsBits, 0.05, 30, 21)
		truth := stream.NewFreq()
		maxErr := 0.0
		steps := 0
		for {
			u, ok := w.gen.Next()
			if !ok {
				break
			}
			alg.Update(u.Item, u.Delta)
			truth.Apply(u)
			steps++
			if steps > 100 {
				if e := math.Abs(alg.Estimate() - truth.Entropy()); e > maxErr {
					maxErr = e
				}
			}
		}
		fmt.Printf("  %-18s %12.3f %12.3f %12.3f %10v\n",
			w.name, truth.Entropy(), alg.Estimate(), maxErr, alg.(sketch.RobustnessReporter).Robustness().Exhausted)
	}
}
