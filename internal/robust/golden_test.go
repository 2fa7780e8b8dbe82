package robust_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/cascaded"
	"repro/internal/robust"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// goldenCell is one fixed-seed construction driven over one fixed stream.
// hash digests, per update, (Float64bits(Estimate()), Robustness().Switches)
// — plus Query/TopK probes every 50 updates for the point-querying cells —
// and the final SpaceBytes and Copies. budget is the reported flip budget.
// The cells whose name starts "long/" cross lag-buffer drains; their
// digest leaves SpaceBytes out, because the parent that generated the
// hashes did not yet charge the drain's coalescing scratch.
type goldenCell struct {
	name   string
	est    sketch.Estimator
	gen    stream.Generator
	points bool
	hash   string
	budget int
}

func goldenCells(t *testing.T) []goldenCell {
	zipf := func() stream.Generator { return stream.NewZipf(1<<10, 2500, 1.2, 5) }
	short := func() stream.Generator { return stream.NewZipf(1<<10, 1200, 1.3, 23) }
	wrap := func(pol robust.Policy, eps, delta float64, n uint64, seed int64, prob robust.Problem) sketch.Estimator {
		est, err := pol.Wrap(eps, delta, n, seed, prob)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	model := func(p float64, m robust.Model) robust.Problem {
		prob, err := robust.LpProblemFor(p, m)
		if err != nil {
			t.Fatal(err)
		}
		return prob
	}
	paths := func(m uint64, maxCount float64, kCap int) robust.Policy {
		return robust.Policy{Kind: robust.Paths, StreamLen: m, MaxCount: maxCount, KCap: kCap}
	}
	cells := []goldenCell{
		{"NewF0", robust.NewF0(0.4, 0.05, 1<<20, 7), zipf(), false, "495ca2c694639f87", -1},
		{"NewFp/p=1", robust.NewFp(1, 0.5, 0.05, 1<<12, 5), short(), false, "e1258d9b760fe307", -1},
		{"NewFp/p=1.5", robust.NewFp(1.5, 0.5, 0.05, 1<<12, 5), short(), false, "f9b9b8afc35dab13", -1},
		{"NewFp/p=2", robust.NewFp(2, 0.4, 0.05, 1<<16, 9), zipf(), false, "5a0afc98de7928de", -1},
		{"NewHeavyHitters", robust.NewHeavyHitters(0.3, 0.05, 1<<20, 25), zipf(), true, "a96d9d9c81566a00", -1},
		{"NewEntropy", robust.NewEntropy(1.0, 0.05, 30, 21), short(), false, "52fc4ebf28fe3f2c", 30},

		// Theorem 1.5 at its honest λ; Theorems 1.6 / 1.11 under their
		// declared stream models (p = 1 takes the Indyk moment path).
		{"f2+paths/theorem-1.5", wrap(paths(1<<12, 1024, 2048), 0.5, 0.001, 1<<10, 7, robust.LpProblem(2)),
			zipf(), false, "4eecf83a467b777b", 424},
		{"f2+paths/turnstile", wrap(paths(1200, 0, 4096), 0.5, 0.05, 600, 5, model(2, robust.TurnstileModel(64))),
			stream.NewInsertDelete(600), false, "4a1c897957c67814", 64},
		{"f2+paths/bounded_deletion", wrap(paths(3000, 3000, 2048), 0.5, 0.05, 256, 17, model(2, robust.BoundedDeletionModel(4))),
			stream.NewBoundedDeletion(256, 3000, 2, 4, 0.4, 19), false, "2377d0323240c23c", 137984},
		{"f1+paths/bounded_deletion", wrap(paths(4000, 4000, 2500), 0.5, 0.001, 256, 17, model(1, robust.BoundedDeletionModel(4))),
			stream.NewBoundedDeletion(256, 3000, 1, 4, 0.4, 19), false, "1bc8dd5be89b885a", 2224},

		// Theorem 1.2 (Algorithm 2 inner) and Theorem 1.7 (max-stable
		// inner): hand-assembled at the parent, where they reported -1.
		{"F0-fast", wrap(paths(1<<13, 0, 0), 0.4, 0.001, 1<<12, 7, robust.F0FastProblem()),
			stream.NewUniform(1<<11, 4096, 5), false, "4dee80b7581f826b", 423},
		{"Fp-big", wrap(paths(10000, 4000, 0), 0.4, 0.001, 4096, 13, robust.FpBigProblem(3, 100, 3)),
			stream.NewZipf(4096, 4000, 1.5, 15), false, "54e72f35d03df4e9", 561},

		// Cascaded norms: (2,2) flattens to the L2 norm (cascaded.NewRobust22
		// at the parent); (p,k) rings over exact trackers.
		{"cascaded(2,2)", robust.NewFp(2, 0.25, 0.05, 1<<16, 3), zipf(), false, "518abe2fd9d7464c", -1},
		{"cascaded(1,2)", wrap(robust.Policy{Kind: robust.Ring}, 0.25, 0.05, 16*64, 1, cascaded.Problem(1, 2, 64)),
			stream.NewUniform(16*64, 3000, 9), false, "1847e89e93a8b5b6", -1},

		// Long enough to cross two lag-buffer drains (16 384 updates each):
		// the trailing copies these cells switch to were fed by the drain.
		{"long/kmv+switching", wrap(robust.Policy{Kind: robust.Switching, Budget: 96, KCap: 64}, 0.3, 0.05, 1<<20, 7, robust.F0Problem()),
			stream.NewZipf(1<<20, 40000, 1.2, 31), false, "e259c483bc958fab", 96},
		{"long/f2+ring", wrap(robust.Policy{Kind: robust.Ring, KCap: 64}, 0.3, 0.05, 1<<20, 7, robust.LpProblem(2)),
			stream.NewZipf(1<<20, 40000, 1.2, 33), false, "20fa3ef6d9f7f9a2", -1},
	}

	// Every registry cell: the four hosted base problems under every policy
	// Check admits, at test-scale budget and cap.
	hashes := map[string]string{
		"f2+switching": "4413b7f33b466c25", "f2+ring": "48751b01abc63837", "f2+paths": "507b68cb0fb3bc19",
		"kmv+switching": "3e27274bdb676abc", "kmv+ring": "eaa87b0d68371faa", "kmv+paths": "8e23979b16e0370e",
		"countsketch+switching": "756ee53cd72f8033", "countsketch+ring": "cf2b3ca27ad78b54", "countsketch+paths": "ed556852721641c9",
		"cc+switching": "bd6ffe905ff6b150", "cc+paths": "64209cf61a383b94",
	}
	for _, r := range []struct {
		name string
		prob robust.Problem
	}{
		{"f2", robust.LpProblem(2)}, {"kmv", robust.F0Problem()},
		{"countsketch", robust.HHL2Problem()}, {"cc", robust.EntropyProblem()},
	} {
		for _, kind := range []robust.Kind{robust.Switching, robust.Ring, robust.Paths} {
			pol := robust.Policy{Kind: kind, Budget: 24, KCap: 64}
			if pol.Check(r.prob) != nil {
				continue
			}
			budget := 24
			if kind == robust.Ring {
				budget = -1
			}
			name := r.name + "+" + kind.String()
			cells = append(cells, goldenCell{name, wrap(pol, 0.5, 0.05, 1<<16, 3, r.prob), short(),
				r.name == "countsketch", hashes[name], budget})
		}
	}
	return cells
}

// TestGoldenEstimates pins every surviving constructor and every registry
// cell to the published outputs of the commit before Policy.Wrap became
// the only construction path (hashes generated there, with the deleted
// constructors in place of their Wrap spellings): same estimates, switch
// counts, point-query answers and space, update for update. The one
// permitted difference is the budget of F0-fast and Fp-big, which were
// hand-assembled without a flip budget and reported -1; through Wrap they
// report the theorem's λ.
func TestGoldenEstimates(t *testing.T) {
	for _, c := range goldenCells(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			rr := c.est.(sketch.RobustnessReporter)
			h := fnv.New64a()
			put := func(v uint64) {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
			for step := 1; ; step++ {
				u, ok := c.gen.Next()
				if !ok {
					break
				}
				c.est.Update(u.Item, u.Delta)
				put(math.Float64bits(c.est.Estimate()))
				put(uint64(rr.Robustness().Switches))
				if c.points && step%50 == 0 {
					tk := c.est.(sketch.TopKQuerier)
					for item := uint64(0); item < 8; item++ {
						put(math.Float64bits(tk.Query(item)))
					}
					for _, iw := range tk.TopK(5) {
						put(iw.Item)
						put(math.Float64bits(iw.Weight))
					}
				}
			}
			r := rr.Robustness()
			if !strings.HasPrefix(c.name, "long/") {
				put(uint64(c.est.SpaceBytes()))
			}
			put(uint64(r.Copies))
			if got := fmt.Sprintf("%016x", h.Sum64()); got != c.hash {
				t.Errorf("hash %s, want %s", got, c.hash)
			}
			if r.Budget != c.budget || r.Exhausted {
				t.Errorf("robustness %+v, want unexhausted budget %d", r, c.budget)
			}
		})
	}
}
