package robust

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/game"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// TestRobustAdversaryGrid runs every robust estimator against every
// applicable adversary class — the failure-injection matrix. Each cell is
// a full adversarial game; a single break anywhere is a regression.
func TestRobustAdversaryGrid(t *testing.T) {
	type algCase struct {
		name  string
		make  func(seed int64) sketch.Estimator
		truth func(*stream.Freq) float64
		check game.Check
	}
	const eps = 0.4
	algs := []algCase{
		{
			"F0/switching",
			func(seed int64) sketch.Estimator { return NewF0(eps, 0.05, 1<<20, seed) },
			(*stream.Freq).F0,
			game.RelCheck(2 * eps),
		},
		{
			"F0/fast-paths",
			func(seed int64) sketch.Estimator {
				return mustWrap(t, Policy{Kind: Paths, StreamLen: 1 << 13}, eps, 0.001, 1<<12, seed, F0FastProblem())
			},
			(*stream.Freq).F0,
			game.RelCheck(2 * eps),
		},
		{
			"L2/switching",
			func(seed int64) sketch.Estimator { return NewFp(2, eps, 0.05, 1<<16, seed) },
			(*stream.Freq).L2,
			game.RelCheck(2 * eps),
		},
	}
	type advCase struct {
		name string
		make func(seed int64) game.Adversary
	}
	advs := []advCase{
		{"oblivious-uniform", func(seed int64) game.Adversary {
			return game.FromGenerator(stream.NewUniform(1<<12, 6000, seed))
		}},
		{"oblivious-zipf", func(seed int64) game.Adversary {
			return game.FromGenerator(stream.NewZipf(1<<12, 6000, 1.3, seed))
		}},
		{"ramp", func(seed int64) game.Adversary { return adversary.NewRamp(6000) }},
		{"chaser", func(seed int64) game.Adversary { return adversary.NewChaser(6000, seed) }},
		{"ams-attack", func(seed int64) game.Adversary { return adversary.NewAMSAttack(64, 4, seed) }},
	}
	for _, a := range algs {
		for _, v := range advs {
			t.Run(fmt.Sprintf("%s_vs_%s", a.name, v.name), func(t *testing.T) {
				res := game.Run(a.make(7), v.make(11), a.truth, a.check,
					game.Config{MaxSteps: 6000, Warmup: 150})
				if res.Broken {
					t.Fatalf("broken at step %d: est %v vs truth %v (max rel.err %.2f)",
						res.BrokenAt, res.BrokenEst, res.BrokenTru, res.MaxRelErr)
				}
			})
		}
	}
}
