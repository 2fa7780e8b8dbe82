package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/f0"
	"repro/internal/fp"
	"repro/internal/game"
	"repro/internal/heavyhitters"
	"repro/internal/prf"
	"repro/internal/robust"
	"repro/internal/stream"
)

// runAMS reproduces the Theorem 9.1 figure: the collapse of the dense AMS
// estimate under Algorithm 3, its success probability over repeated
// trials (paper: ≥ 9/10), the O(t) scaling of the break point, and the
// impotence of the same adversary against the robust wrapper, whose
// rounded outputs starve it of feedback. The same game against a tenant of
// a real sketchd, every round an update then an estimate over loopback
// HTTP, is `experiments campaign -sketches f2 -policies none,ring -targets http`.
func runAMS() {
	fmt.Println("series: AMS estimate / true F2 under Algorithm 3 (t = 64 rows)")
	sk := fp.NewDenseAMS(64, 1<<16, rand.New(rand.NewSource(1)))
	res := game.Run(sk, adversary.NewAMSAttack(64, 4, 2),
		func(f *stream.Freq) float64 { return f.Fp(2) },
		func(est, truth float64) bool { return est >= truth/2 },
		game.Config{MaxSteps: 400 * 64, Record: true, StopOnBreak: true})
	for i := 0; i < len(res.Estimates); i += len(res.Estimates)/10 + 1 {
		fmt.Printf("  update %5d  ratio %.3f\n", i+1, res.Estimates[i]/res.Truths[i])
	}
	fmt.Printf("  -> broken at update %d (ratio < 1/2)\n\n", res.BrokenAt)

	fmt.Println("success rate and updates-to-break vs sketch rows t (20 trials each):")
	fmt.Printf("  %6s %10s %14s %10s\n", "t", "success", "mean updates", "updates/t")
	for _, t := range []int{16, 32, 64, 128} {
		wins, total := 0, 0
		for trial := 0; trial < 20; trial++ {
			sk := fp.NewDenseAMS(t, 1<<16, rand.New(rand.NewSource(int64(trial))))
			r := game.Run(sk, adversary.NewAMSAttack(t, 4, int64(trial)+50),
				func(f *stream.Freq) float64 { return f.Fp(2) },
				func(est, truth float64) bool { return est >= truth/2 },
				game.Config{MaxSteps: 400 * t, StopOnBreak: true})
			if r.Broken {
				wins++
				total += r.BrokenAt
			}
		}
		mean := 0.0
		if wins > 0 {
			mean = float64(total) / float64(wins)
		}
		fmt.Printf("  %6d %9d%% %14.0f %10.1f\n", t, wins*5, mean, mean/float64(t))
	}

	fmt.Println("\nbeyond the theorem: the same attack vs the practical 4-wise bucketed AMS")
	fmt.Printf("  %12s %10s %14s\n", "rows×width", "success", "mean updates")
	for _, cfg := range []fp.F2Sizing{{Rows: 1, Width: 64}, {Rows: 5, Width: 64}} {
		wins, total := 0, 0
		for trial := 0; trial < 10; trial++ {
			sk := fp.NewF2(cfg, rand.New(rand.NewSource(int64(trial))))
			r := game.Run(sk, adversary.NewAMSAttack(cfg.Rows*cfg.Width, 4, int64(trial)+9),
				func(f *stream.Freq) float64 { return f.Fp(2) },
				func(est, truth float64) bool { return est >= truth/2 },
				game.Config{MaxSteps: 100 * cfg.Rows * cfg.Width, StopOnBreak: true})
			if r.Broken {
				wins++
				total += r.BrokenAt
			}
		}
		mean := 0
		if wins > 0 {
			mean = total / wins
		}
		fmt.Printf("  %6dx%-5d %9d%% %14d\n", cfg.Rows, cfg.Width, wins*10, mean)
	}
	fmt.Println("  (the theorem covers the dense fully-independent sketch; empirically the")
	fmt.Println("   4-wise bucketed variant collapses too, at steps ∝ total counters)")

	fmt.Println("\nsame adversary vs robust F2 (sketch switching, ε = 0.25):")
	alg := robust.NewFp(2, 0.25, 0.05, 1<<16, 3)
	r := game.Run(alg, adversary.NewAMSAttack(64, 4, 7), (*stream.Freq).L2,
		game.RelCheck(0.5), game.Config{MaxSteps: 6000, Warmup: 10})
	fmt.Printf("  %d adversarial updates, max rel.err %.1f%%, broken: %v\n",
		r.Steps, 100*r.MaxRelErr, r.Broken)
}

// runKMV demonstrates the Section 10 threat model: an adversary holding
// the hash seed inflates a static KMV arbitrarily; the PRF-wrapped and the
// sketch-switching estimators resist the identical adversary. It is the
// paper's §1 scenario: a query optimiser estimates an attribute's distinct
// values with a sketch and its next queries depend on the answers, so the
// stream is adaptively chosen. Theorem 10.1 defends for one key schedule,
// Theorem 1.1 with no cryptographic assumption at a poly(1/ε) space factor.
func runKMV() {
	const warmup, poison = 5000, 512
	fmt.Printf("seed-leakage adversary: %d honest inserts, %d hash-preimage inserts\n\n", warmup, poison)
	fmt.Printf("  %-22s %16s %10s\n", "estimator", "final est/truth", "verdict")

	kmv := f0.NewKMV(256, rand.New(rand.NewSource(7)))
	res := game.Run(kmv, adversary.NewSeedLeak(kmv.Hash(), warmup, poison),
		(*stream.Freq).F0, game.RelCheck(0.5), game.Config{Record: true})
	last := len(res.Estimates) - 1
	fmt.Printf("  %-22s %16.2e %10s\n", "static KMV", res.Estimates[last]/res.Truths[last], "BROKEN")

	inner := f0.NewKMV(256, rand.New(rand.NewSource(7)))
	crypto, _ := robust.NewCryptoF0(prf.NewFromSeed(1234), inner)
	res = game.Run(crypto, adversary.NewSeedLeak(inner.Hash(), warmup, poison),
		(*stream.Freq).F0, game.RelCheck(0.5), game.Config{Record: true})
	last = len(res.Estimates) - 1
	fmt.Printf("  %-22s %16.3f %10s\n", "crypto F0 (Thm 10.1)", res.Estimates[last]/res.Truths[last], "holds")

	sw := robust.NewF0(0.3, 0.01, 1<<20, 99)
	decoy := f0.NewKMV(256, rand.New(rand.NewSource(8)))
	res = game.Run(sw, adversary.NewSeedLeak(decoy.Hash(), warmup, poison),
		(*stream.Freq).F0, game.RelCheck(0.4), game.Config{Record: true, Warmup: 100})
	last = len(res.Estimates) - 1
	fmt.Printf("  %-22s %16.3f %10s\n", "switching F0 (Thm 1.1)", res.Estimates[last]/res.Truths[last], "holds")

	fmt.Printf("\nspace: static %d B, crypto %d B (+%d B key schedule), switching %d KiB\n",
		kmv.SpaceBytes(), crypto.SpaceBytes(), prf.NewFromSeed(0).SpaceBytes(), sw.SpaceBytes()/1024)
}

// runHH runs the Theorem 6.5 algorithm against an adaptive flooder and
// reports recall/precision against exact ground truth. The stream is a
// network monitor's: background flows, four heavy flows, and a flooder
// that watches the published set — it hides behind one-packet flows while
// its own flow is in the set and pushes that flow whenever it is not.
func runHH() {
	const eps = 0.3
	const steps = 25000
	hh := robust.NewHeavyHitters(eps, 0.02, 1<<20, 1)
	truth := stream.NewFreq()
	rng := rand.New(rand.NewSource(99))
	var set []uint64
	contains := func(id uint64) bool {
		for _, s := range set {
			if s == id {
				return true
			}
		}
		return false
	}
	for step := 0; step < steps; step++ {
		var u stream.Update
		switch {
		case step%5 == 0:
			u = stream.Update{Item: 1<<20 + uint64(step%4), Delta: 1}
		case step%2 == 0 && contains(0xBAD):
			u = stream.Update{Item: rng.Uint64() % (1 << 20), Delta: 1}
		case step%2 == 0:
			u = stream.Update{Item: 0xBAD, Delta: 3}
		default:
			u = stream.Update{Item: rng.Uint64() % (1 << 20), Delta: 1}
		}
		hh.Update(u.Item, u.Delta)
		truth.Apply(u)
		if step%100 == 0 {
			set = hh.Set()
		}
	}
	set = hh.Set()
	missed := 0
	trueHeavy := truth.L2HeavyHitters(1.5 * eps)
	for _, id := range trueHeavy {
		if !contains(id) {
			missed++
		}
	}
	falsePos := 0
	for _, id := range set {
		if math.Abs(float64(truth.Count(id))) < eps/4*truth.L2() {
			falsePos++
		}
	}
	fmt.Printf("adaptive flooder, %d packets, ε = %.2f\n", steps, eps)
	recall := "n/a (no flow that heavy)"
	if len(trueHeavy) > 0 {
		recall = fmt.Sprintf("%.0f%%", 100*float64(len(trueHeavy)-missed)/float64(len(trueHeavy)))
	}
	fmt.Printf("  true 1.5ε-heavy flows: %d, missed: %d (recall %s)\n",
		len(trueHeavy), missed, recall)
	fmt.Printf("  published set size: %d, below-(ε/4) false positives: %d\n", len(set), falsePos)
	static := heavyhitters.NewCountSketch(heavyhitters.SizeForPointQuery(eps, 0.02), rng)
	static.Update(1, 1)
	fmt.Printf("  space: %d KiB (static CountSketch at same ε: %d KiB)\n",
		hh.SpaceBytes()/1024, static.SpaceBytes()/1024)
}
