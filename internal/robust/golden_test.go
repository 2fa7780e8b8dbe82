package robust_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/cascaded"
	"repro/internal/robust"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// goldenCell is one fixed-seed construction driven over one fixed stream,
// pinned by two records. stream is what an observer of the published
// outputs sees: a digest of, per update, (Float64bits(Estimate()),
// Robustness().Switches) — plus Query/TopK probes every 50 updates for the
// two cells whose point answers a theorem covers (points). The shape is
// what the operator pays at the end of the stream: SpaceBytes, live Copies
// and the reported flip budget. A change to the wrappers' bookkeeping may
// move a shape; nothing may move a stream.
type goldenCell struct {
	name   string
	est    sketch.Estimator
	gen    stream.Generator
	points bool
}

type goldenPin struct {
	stream                string
	space, copies, budget int
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
		{"NewF0", robust.NewF0(0.4, 0.05, 1<<20, 7), zipf(), false},
		{"NewFp/p=1", robust.NewFp(1, 0.5, 0.05, 1<<12, 5), short(), false},
		{"NewFp/p=1.5", robust.NewFp(1.5, 0.5, 0.05, 1<<12, 5), short(), false},
		{"NewFp/p=2", robust.NewFp(2, 0.4, 0.05, 1<<16, 9), zipf(), false},
		{"NewHeavyHitters", robust.NewHeavyHitters(0.3, 0.05, 1<<20, 25), zipf(), true},
		{"NewEntropy", robust.NewEntropy(1.0, 0.05, 30, 21), short(), false},

		// Theorem 1.5 at its honest λ; Theorems 1.6 / 1.11 under their
		// declared stream models (p = 1 takes the Indyk moment path).
		{"f2+paths/theorem-1.5", wrap(paths(1<<12, 1024, 2048), 0.5, 0.001, 1<<10, 7, robust.LpProblem(2)),
			zipf(), false},
		{"f2+paths/turnstile", wrap(paths(1200, 0, 4096), 0.5, 0.05, 600, 5, model(2, robust.TurnstileModel(64))),
			stream.NewInsertDelete(600), false},
		{"f2+paths/bounded_deletion", wrap(paths(3000, 3000, 2048), 0.5, 0.05, 256, 17, model(2, robust.BoundedDeletionModel(4))),
			stream.NewBoundedDeletion(256, 3000, 2, 4, 0.4, 19), false},
		{"f1+paths/bounded_deletion", wrap(paths(4000, 4000, 2500), 0.5, 0.001, 256, 17, model(1, robust.BoundedDeletionModel(4))),
			stream.NewBoundedDeletion(256, 3000, 1, 4, 0.4, 19), false},

		// Theorem 1.2 (Algorithm 2 inner) and Theorem 1.7 (max-stable
		// inner): hand-assembled at the parent, where they reported -1.
		{"F0-fast", wrap(paths(1<<13, 0, 0), 0.4, 0.001, 1<<12, 7, robust.F0FastProblem()),
			stream.NewUniform(1<<11, 4096, 5), false},
		{"Fp-big", wrap(paths(10000, 4000, 0), 0.4, 0.001, 4096, 13, robust.FpBigProblem(3, 100, 3)),
			stream.NewZipf(4096, 4000, 1.5, 15), false},

		// Cascaded norms: (2,2) flattens to the L2 norm (cascaded.NewRobust22
		// at the parent); (p,k) rings over exact trackers.
		{"cascaded(2,2)", robust.NewFp(2, 0.25, 0.05, 1<<16, 3), zipf(), false},
		{"cascaded(1,2)", wrap(robust.Policy{Kind: robust.Ring}, 0.25, 0.05, 16*64, 1, cascaded.Problem(1, 2, 64)),
			stream.NewUniform(16*64, 3000, 9), false},

		// Long: the ring crosses two drains of its raw lag buffer (16 384
		// updates each), the dense f2 cell two of its folded one (16 384
		// distinct items each), so the trailing copies these cells switch to
		// were fed by a drain. The dense kmv cell's Zipf stream holds too few
		// distinct items to drain.
		{"long/f2+switching", wrap(robust.Policy{Kind: robust.Switching, Budget: 96, KCap: 64}, 0.3, 0.05, 1<<20, 7, robust.LpProblem(2)),
			stream.NewUniform(1<<20, 40000, 35), false},
		{"long/kmv+switching", wrap(robust.Policy{Kind: robust.Switching, Budget: 96, KCap: 64}, 0.3, 0.05, 1<<20, 7, robust.F0Problem()),
			stream.NewZipf(1<<20, 40000, 1.2, 31), false},
		{"long/f2+ring", wrap(robust.Policy{Kind: robust.Ring, KCap: 64}, 0.3, 0.05, 1<<20, 7, robust.LpProblem(2)),
			stream.NewZipf(1<<20, 40000, 1.2, 33), false},
	}

	// Every registry cell: the four hosted base problems under every policy
	// Check admits, at test-scale budget and cap.
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
			name := r.name + "+" + kind.String()
			cells = append(cells, goldenCell{name, wrap(pol, 0.5, 0.05, 1<<16, 3, r.prob), short(), name == "countsketch+ring"})
		}
	}
	return cells
}

// goldenPins: the stream digests were generated at the last commit where
// Switcher and Paths still served unrounded point/top-k reads, and no
// change to the wrappers may edit one. Shapes follow the bookkeeping: a
// dense-switching cell holds its slots minus one per switch, a KMV is
// charged 8 bytes a retained value and nothing else (the five kmv cells
// were re-pinned, each down, when its state became that one run), a
// signed counter 4 bytes until one overflows (the thirteen f2 and
// countsketch cells were re-pinned, each down, when F2Sketch went narrow),
// an Algorithm 2 holds no batch buffer below its batching degree and
// charges its identity sets at a Go map's 17 bytes a slot (F0-fast was
// re-pinned down 920 bytes by the first and up 52 384 by the second), and a
// coalescing lag buffer holds its 32-byte-a-slot catch-up scratch from the
// first switch on, not the first drain (the ten f2 and kmv ensembles that
// switch before a drain, or after the last one, were re-pinned up 8 192 to
// 49 152 bytes). The two Theorem 6.5 rings were re-pinned when their lag
// buffer went from 1 024 updates to core.PendingCap, coalesced:
// countsketch+ring up 4 032 bytes (the catch-up scratch), NewHeavyHitters
// down 47 424 (its copies end further behind, on smaller pools); both went
// up 4 952 when the generator their restarts draw from was charged
// (dist.RandBytes). A dense copy is built when it becomes active or at the
// first drain, so a dense cell that ends before its first drain holds only
// its active copy: cc+switching went down 86 432 bytes and kmv+switching
// 192 (four copies never built each), NewEntropy 470 240 (twenty); the f2
// cell, down to its last copy, and the long cells, past a drain, did not
// move. A CountSketch's candidate pool is reserved whole when the sketch is
// made, so it is charged as allocated, not as filled: the four countsketch
// cells went up (countsketch+paths 127 680, countsketch+switching 127 680,
// countsketch+ring 3 405 056, NewHeavyHitters 13 776 192). A raw lag buffer
// reserves its catch-up scratch at the bound when it is made, so where the
// flips fall no longer sizes it: the eight ring cells went up (kmv+ring
// 749 568, f2+ring 716 800, long/f2+ring 180 224, NewF0 647 168, NewFp/p=2
// 647 168, cascaded(2,2) 647 168, countsketch+ring 1 433 600,
// NewHeavyHitters 1 294 336). A dense ensemble keeps its buffer folded and
// sizes it, and the fold's index, by the updates pushed since its last
// drain: kmv+switching went up 40 960 and f2+switching 8 192, and
// long/kmv+switching, whose Zipf stream no longer reaches a drain, down
// 1 238 608. long/f2+switching was added then, its stream digest taken
// from the code before the fold.
var goldenPins = map[string]goldenPin{
	"F0-fast":                   {"5040067f2e70393e", 91632, 1, 423},
	"Fp-big":                    {"7570bb2cfe8171da", 323316, 1, 561},
	"NewEntropy":                {"44110b87c0ed9816", 44008, 21, 30},
	"NewF0":                     {"703b690abf8cbe24", 882848, 32, -1},
	"NewFp/p=1":                 {"5e3795570f4d4554", 834096, 25, -1},
	"NewFp/p=1.5":               {"871437e321335868", 834096, 25, -1},
	"NewFp/p=2":                 {"aadf5bcc2e76d117", 4643088, 32, -1},
	"NewHeavyHitters":           {"05aa2030e7a97c4e", 30997324, 86, -1},
	"cascaded(1,2)":             {"79ea6c67e5911445", 81632, 52, -1},
	"cascaded(2,2)":             {"f4a10a040efaf203", 16664944, 52, -1},
	"cc+paths":                  {"74ec798ec2111301", 21624, 1, 24},
	"cc+switching":              {"b5abd9406b228642", 42104, 5, 24},
	"countsketch+paths":         {"1809c267e82b0e01", 137368, 1, 24},
	"countsketch+ring":          {"fa1a6118fb4ba630", 7973584, 50, -1},
	"countsketch+switching":     {"d8a34ff62e98283b", 157848, 1, 24},
	"f1+paths/bounded_deletion": {"1ccaad91ce70f7ff", 40016, 1, 2224},
	"f2+paths":                  {"9cd527fa90e56d86", 20872, 1, 24},
	"f2+paths/bounded_deletion": {"fa76d44daf814f8f", 20872, 1, 137984},
	"f2+paths/theorem-1.5":      {"706368d5b88eea8c", 20872, 1, 424},
	"f2+paths/turnstile":        {"4aa3f4058ff2ce57", 20872, 1, 64},
	"f2+ring":                   {"c13b9f86ff3f4625", 1328328, 25, -1},
	"f2+switching":              {"c13b9f86ff3f4625", 119176, 1, 24},
	"kmv+paths":                 {"ac6bac138760c0c7", 5176, 1, 24},
	"kmv+ring":                  {"ac6bac138760c0c7", 813240, 25, -1},
	"kmv+switching":             {"ac6bac138760c0c7", 103480, 5, 24},
	"long/f2+switching":         {"35bdc6e495495a00", 4308100, 61, 96},
	"long/f2+ring":              {"8aa832588dd47949", 3563836, 43, -1},
	"long/kmv+switching":        {"065269990a0fd867", 813208, 43, 96},
}

// TestGoldenEstimates pins every constructor and every registry cell:
// same estimates, switch counts and theorem-backed point answers, update
// for update, and the same final footprint.
func TestGoldenEstimates(t *testing.T) {
	for _, c := range goldenCells(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			want, ok := goldenPins[c.name]
			if !ok {
				t.Fatal("no golden pin")
			}
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
			got := goldenPin{fmt.Sprintf("%016x", h.Sum64()), c.est.SpaceBytes(), r.Copies, r.Budget}
			if got.stream != want.stream {
				t.Errorf("stream %s, want %s", got.stream, want.stream)
			}
			if got != want || r.Exhausted {
				t.Errorf("shape %+v (exhausted %v), want unexhausted %+v", got, r.Exhausted, want)
			}
		})
	}
}
