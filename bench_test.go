// Package repro's root benchmark suite regenerates every table and figure
// of the paper at benchmark scale — one benchmark per experiment ID in the
// index of cmd/experiments' package comment. Custom metrics (space ratios, break points, error levels)
// are attached via b.ReportMetric; run with
//
//	go test -bench=. -benchmem
//
// and see cmd/experiments for the full-size text tables.
package repro

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/adversary"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/entropy"
	"repro/internal/f0"
	"repro/internal/fp"
	"repro/internal/game"
	"repro/internal/heavyhitters"
	"repro/internal/prf"
	"repro/internal/robust"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// mustWrap builds a paths-regime estimator (δ = 0.001, as the theorems'
// tiny-δ rows use) through the one construction path.
func mustWrap(b *testing.B, pol robust.Policy, eps float64, n uint64, seed int64, prob robust.Problem) sketch.Estimator {
	b.Helper()
	est, err := pol.Wrap(eps, 0.001, n, seed, prob)
	if err != nil {
		b.Fatal(err)
	}
	return est
}

func mustLpProblemFor(b *testing.B, p float64, m robust.Model) robust.Problem {
	b.Helper()
	prob, err := robust.LpProblemFor(p, m)
	if err != nil {
		b.Fatal(err)
	}
	return prob
}

func feed(b *testing.B, est sketch.Estimator, g stream.Generator) {
	b.Helper()
	for {
		u, ok := g.Next()
		if !ok {
			return
		}
		est.Update(u.Item, u.Delta)
	}
}

// BenchmarkTable1DistinctElements — Table 1, F0 row: robust-vs-static
// space ratio plus robust update throughput.
func BenchmarkTable1DistinctElements(b *testing.B) {
	static := f0.NewTracking(0.3, 0.05, 1<<20, 1)
	rob := robust.NewF0(0.3, 0.05, 1<<20, 1)
	feed(b, static, stream.NewUniform(1<<14, 20000, 3))
	feed(b, rob, stream.NewUniform(1<<14, 20000, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rob.Update(uint64(i), 1)
	}
	b.ReportMetric(float64(rob.SpaceBytes())/float64(static.SpaceBytes()), "space-ratio")
}

// BenchmarkTable1Fp — Table 1, Fp (p ∈ (0,2]) row at p = 1.
func BenchmarkTable1Fp(b *testing.B) {
	static := fp.NewIndyk(1, fp.SizeIndyk(0.5, 0.05), rand.New(rand.NewSource(1)))
	rob := robust.NewFp(1, 0.5, 0.05, 1<<16, 1)
	feed(b, static, stream.NewUniform(1<<10, 2000, 3))
	feed(b, rob, stream.NewUniform(1<<10, 2000, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rob.Update(uint64(i%1024), 1)
	}
	b.ReportMetric(float64(rob.SpaceBytes())/float64(static.SpaceBytes()), "space-ratio")
}

// BenchmarkTable1FpSmallDelta — Theorem 1.5: computation-paths Fp update
// cost at the tiny-δ sizing (capped; see robust.Policy.KCap).
func BenchmarkTable1FpSmallDelta(b *testing.B) {
	rob := mustWrap(b, robust.Policy{Kind: robust.Paths, StreamLen: 1 << 12, MaxCount: 1024, KCap: 2048}, 0.5, 1<<10, 7, robust.LpProblem(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rob.Update(uint64(i%1024), 1)
	}
	b.ReportMetric(float64(rob.SpaceBytes()), "bytes")
}

// BenchmarkTable1FpBig — Table 1, Fp (p > 2) row: the n^{1−2/p} width
// scaling surfaced as a metric, plus robust update throughput at p = 3.
func BenchmarkTable1FpBig(b *testing.B) {
	rob := mustWrap(b, robust.Policy{Kind: robust.Paths, StreamLen: 10000, MaxCount: 4000}, 0.4, 4096, 13, robust.FpBigProblem(3, 60, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rob.Update(uint64(i%4096), 1)
	}
	// n grows 1024x → width grows ≈ 1024^{1/3} ≈ 10.1x.
	w10 := fp.SizeMaxStableWidth(3, 1<<10)
	w20 := fp.SizeMaxStableWidth(3, 1<<20)
	b.ReportMetric(float64(w20)/float64(w10), "width-growth-1024x-n")
}

// BenchmarkTable1HeavyHitters — Table 1, L2 heavy hitters row.
func BenchmarkTable1HeavyHitters(b *testing.B) {
	static := heavyhitters.NewCountSketch(heavyhitters.SizeForPointQuery(0.3, 0.05), rand.New(rand.NewSource(1)))
	rob := robust.NewHeavyHitters(0.3, 0.05, 1<<20, 1)
	feed(b, static, stream.NewHeavy(1<<18, 10000, 4, 0.4, 3))
	feed(b, rob, stream.NewHeavy(1<<18, 10000, 4, 0.4, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rob.Update(uint64(i), 1)
	}
	b.ReportMetric(float64(rob.SpaceBytes())/float64(static.SpaceBytes()), "space-ratio")
}

// BenchmarkTable1Entropy — Table 1, entropy row.
func BenchmarkTable1Entropy(b *testing.B) {
	static := entropy.NewCC(entropy.SizeCC(1.0, 0.05), rand.New(rand.NewSource(1)))
	rob := robust.NewEntropy(1.0, 0.05, 30, 1)
	feed(b, static, stream.NewZipf(1<<10, 1000, 1.3, 3))
	feed(b, rob, stream.NewZipf(1<<10, 1000, 1.3, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rob.Update(uint64(i%1024), 1)
	}
	b.ReportMetric(float64(rob.SpaceBytes())/float64(static.SpaceBytes()), "space-ratio")
}

// BenchmarkTable1Turnstile — Theorem 1.6 row: robust Fp on the λ-bounded
// insert-then-delete class.
func BenchmarkTable1Turnstile(b *testing.B) {
	rob := mustWrap(b, robust.Policy{Kind: robust.Paths, StreamLen: 4096, KCap: 2048}, 0.5, 2048, 7, mustLpProblemFor(b, 2, robust.TurnstileModel(200)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta := int64(1)
		if i%2 == 1 {
			delta = -1
		}
		rob.Update(uint64(i%2048), delta)
	}
	b.ReportMetric(float64(rob.SpaceBytes()), "bytes")
}

// BenchmarkTable1BoundedDeletion — Theorem 1.11 row: the α-linear flip
// budget surfaced as a metric plus robust update throughput.
func BenchmarkTable1BoundedDeletion(b *testing.B) {
	rob := mustWrap(b, robust.Policy{Kind: robust.Paths, StreamLen: 4000, MaxCount: 4000, KCap: 1500}, 0.5, 256, 17, mustLpProblemFor(b, 1, robust.BoundedDeletionModel(4)))
	g := stream.NewBoundedDeletion(256, 1<<30, 1, 4, 0.4, 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, _ := g.Next()
		rob.Update(u.Item, u.Delta)
	}
	l2 := core.FlipBoundBoundedDeletion(1, 2, 0.5, 1<<12, 4096)
	l8 := core.FlipBoundBoundedDeletion(1, 8, 0.5, 1<<12, 4096)
	b.ReportMetric(float64(l8)/float64(l2), "flip-growth-4x-alpha")
}

// BenchmarkAttackAMS — Theorem 9.1 figure: updates needed to collapse the
// dense AMS estimate below half the truth (normalized by rows t).
func BenchmarkAttackAMS(b *testing.B) {
	const rows = 64
	var totalSteps, wins int
	for i := 0; i < b.N; i++ {
		sk := fp.NewDenseAMS(rows, 1<<14, rand.New(rand.NewSource(int64(i))))
		res := game.Run(sk, adversary.NewAMSAttack(rows, 4, int64(i)+77),
			func(f *stream.Freq) float64 { return f.Fp(2) },
			func(est, truth float64) bool { return est >= truth/2 },
			game.Config{MaxSteps: 400 * rows, StopOnBreak: true})
		if res.Broken {
			wins++
			totalSteps += res.BrokenAt
		}
	}
	if wins > 0 {
		b.ReportMetric(float64(totalSteps)/float64(wins)/rows, "updates-to-break/t")
		b.ReportMetric(float64(wins)/float64(b.N), "success-rate")
	}
}

// BenchmarkAttackKMV — Section 10 figure: overestimate factor (log10) the
// seed-leakage adversary extracts from a static KMV.
func BenchmarkAttackKMV(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		sk := f0.NewKMV(128, rand.New(rand.NewSource(int64(i))))
		res := game.Run(sk, adversary.NewSeedLeak(sk.Hash(), 1000, 200),
			(*stream.Freq).F0, game.RelCheck(1.0), game.Config{Record: true})
		last := len(res.Estimates) - 1
		if r := res.Estimates[last] / res.Truths[last]; r > worst {
			worst = r
		}
	}
	b.ReportMetric(math.Log10(worst), "log10-overestimate")
}

// BenchmarkCryptoF0 — Theorem 10.1: per-update cost of the PRF wrapper and
// its constant-byte space overhead.
func BenchmarkCryptoF0(b *testing.B) {
	inner := f0.NewKMV(256, rand.New(rand.NewSource(1)))
	alg, err := robust.NewCryptoF0(prf.NewFromSeed(1), inner)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Update(uint64(i), 1)
	}
	b.ReportMetric(float64(prf.NewFromSeed(0).SpaceBytes()), "overhead-bytes")
}

// BenchmarkFlipNumber — Definition 3.2 machinery: cost of the empirical
// flip-number measurement plus the tightness ratio bound/empirical on the
// steepest F0 stream.
func BenchmarkFlipNumber(b *testing.B) {
	seq := stream.Trajectory(stream.Collect(stream.NewDistinct(20000), 0), (*stream.Freq).F0)
	emp := core.FlipNumber(seq, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FlipNumber(seq, 0.2)
	}
	b.ReportMetric(float64(core.FlipBoundFp(0, 0.2, 20000, 1))/float64(emp), "bound/empirical")
}

// BenchmarkFastF0Update — Theorem 1.2 figure: per-update cost of
// Algorithm 2 vs the median-of-KMV baseline at tiny δ. ln(1/δ₀) = 160 sizes
// d = 64, so Algorithm 2 hashes by Horner's rule; internal/f0's
// BenchmarkAlg2Update has a cell on each side of the batching degree.
func BenchmarkFastF0UpdateAlg2(b *testing.B) {
	a := f0.NewAlg2(f0.Alg2Sizing(0.2, 160, 1<<20), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Update(uint64(i)*2654435761, 1)
	}
}

func BenchmarkFastF0UpdateMedianKMV(b *testing.B) {
	med := f0.NewMedian(core.MedianRepsForLn(160), 1, func(seed int64) sketch.Estimator {
		return f0.NewKMV(256, rand.New(rand.NewSource(seed)))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		med.Update(uint64(i)*2654435761, 1)
	}
}

// indykFactory builds the L1 estimator used by the engine ingest
// benchmarks: 128 counters ≈ 4 µs of stable-variate work per update, a
// realistic per-update cost for the sharding to amortize.
func indykFactory(seed int64) sketch.Estimator {
	return fp.NewIndyk(1, 128, rand.New(rand.NewSource(seed)))
}

// BenchmarkEngineIngestSingleThread — the unsharded baseline for the
// engine throughput comparison: one estimator, one goroutine.
func BenchmarkEngineIngestSingleThread(b *testing.B) {
	est := indykFactory(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Update(dist.SplitMix64(uint64(i)), 1)
	}
}

// benchEngineSharded ingests through the engine at the given shard count
// with parallel producers, each handing Apply chunks of Shards×Batch
// updates; compare ns/op against the single-thread baseline above (the
// acceptance bar is ≥2× throughput at 8 shards).
func benchEngineSharded(b *testing.B, shards int) {
	const batch = 512
	eng := engine.New(engine.Config{
		Shards:  shards,
		Batch:   batch,
		Combine: engine.Norm(1),
		Factory: indykFactory,
		Seed:    1,
	})
	var producer atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := producer.Add(1) << 40
		chunk := make([]sketch.Update, 0, shards*batch)
		for i := uint64(0); pb.Next(); i++ {
			if chunk = append(chunk, sketch.Update{Item: dist.SplitMix64(base + i), Delta: 1}); len(chunk) == cap(chunk) {
				eng.Apply(chunk)
				chunk = chunk[:0]
			}
		}
		eng.Apply(chunk)
	})
	b.StopTimer()
	eng.Close()
}

func BenchmarkEngineIngestSharded2(b *testing.B) { benchEngineSharded(b, 2) }
func BenchmarkEngineIngestSharded4(b *testing.B) { benchEngineSharded(b, 4) }
func BenchmarkEngineIngestSharded8(b *testing.B) { benchEngineSharded(b, 8) }

// zipfItems pre-draws a skewed workload so item generation stays out of
// the timed loop.
func zipfItems(n int) []uint64 {
	items := make([]uint64, n)
	g := stream.NewZipf(1<<12, n, 1.3, 17)
	for i := range items {
		u, _ := g.Next()
		items[i] = u.Item
	}
	return items
}

// BenchmarkEngineIngestZipfSingleThread — unsharded baseline on a skewed
// (Zipf 1.3) stream: every duplicate pays the full estimator update.
func BenchmarkEngineIngestZipfSingleThread(b *testing.B) {
	items := zipfItems(1 << 16)
	est := indykFactory(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Update(items[i&(1<<16-1)], 1)
	}
}

// BenchmarkEngineIngestZipfSharded8 — the same skewed stream through the
// 8-shard engine in Apply chunks of Shards×Batch updates: batch coalescing
// merges duplicates before the estimator sees them, so this wins even
// without spare cores, and stacks with the parallel speedup when
// GOMAXPROCS > 1.
func BenchmarkEngineIngestZipfSharded8(b *testing.B) {
	const shards, batch = 8, 512
	items := zipfItems(1 << 16)
	eng := engine.New(engine.Config{
		Shards:  shards,
		Batch:   batch,
		Combine: engine.Norm(1),
		Factory: indykFactory,
		Seed:    1,
	})
	var producer atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		chunk := make([]sketch.Update, 0, shards*batch)
		for i := producer.Add(0x9E3779B97F4A7C15); pb.Next(); i++ {
			if chunk = append(chunk, sketch.Update{Item: items[i&(1<<16-1)], Delta: 1}); len(chunk) == cap(chunk) {
				eng.Apply(chunk)
				chunk = chunk[:0]
			}
		}
		eng.Apply(chunk)
	})
	b.StopTimer()
	eng.Close()
}

// benchSketchdIngest — client-side load benchmark for the sketchd
// service: parallel producers push batched updates through
// internal/client into one keyspace on a loopback server, over the given
// wire codec. ns/op is per stream update (batches of 512 amortize the
// HTTP round trip); compare the Binary cells against their JSON
// baselines for the codec tax, and against the in-process engine
// benchmarks above for the wire tax. Run with -benchmem: the B/op and
// allocs/op columns are the per-update allocation cost of the whole
// client→HTTP→server→engine spine.
func benchSketchdIngest(b *testing.B, sketchType string, codec client.Codec) {
	benchSketchdIngestFsync(b, sketchType, "", codec, "")
}

// benchSketchdIngestFsync is benchSketchdIngest with durability switched
// on: a non-empty fsync policy opens the server over a write-ahead log in
// a temp dir, so the WAL cells price the journal (frame re-encode + append
// + sync policy) against their in-memory twins.
func benchSketchdIngestFsync(b *testing.B, sketchType, policy string, codec client.Codec, fsync string) {
	if testing.Short() {
		b.Skip("loopback-HTTP load benchmark: binds a TCP listener and spins a real server; skipped under -short")
	}
	cfg := server.Config{Shards: 4, Eps: 0.3, Delta: 0.05, N: 1 << 20, Seed: 1}
	if fsync != "" {
		cfg.DataDir = b.TempDir()
		cfg.Fsync = fsync
	}
	srv, err := server.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Shutdown() // == Drain for the in-memory cells
	c := client.New(hs.URL, hs.Client(), client.WithCodec(codec))
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "load", client.TenantSpec{Sketch: sketchType, Policy: policy}); err != nil {
		b.Fatal(err)
	}
	var producer atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := producer.Add(1) << 40
		i := uint64(0)
		batch := make([]client.Update, 0, 512)
		for pb.Next() {
			batch = append(batch, client.Update{Item: dist.SplitMix64(base + i), Delta: 1})
			i++
			if len(batch) == cap(batch) {
				if err := c.Update(ctx, "load", batch); err != nil {
					b.Error(err) // Fatal must not run on a RunParallel goroutine
					return
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			if err := c.Update(ctx, "load", batch); err != nil {
				b.Error(err)
			}
		}
	})
}

// The named cells pin their codec: the JSON cells are the debug/compat
// baseline, the Binary cells ride the negotiated default frames.
func BenchmarkSketchdIngestCountSketch(b *testing.B) {
	benchSketchdIngest(b, "countsketch", client.CodecJSON)
}
func BenchmarkSketchdIngestRobustF2(b *testing.B) {
	benchSketchdIngestFsync(b, "f2", "ring", client.CodecJSON, "")
}
func BenchmarkSketchdIngestBinaryCountSketch(b *testing.B) {
	benchSketchdIngest(b, "countsketch", client.CodecBinary)
}
func BenchmarkSketchdIngestBinaryRobustF2(b *testing.B) {
	benchSketchdIngestFsync(b, "f2", "ring", client.CodecBinary, "")
}

// The robust-F0 twin of the cell above (dense switching over
// median-of-KMV copies, the benchmark's kmv-switching tenant). Its items
// are all distinct, so the drain's coalescing saves it nothing: what it
// prices is the KMV insert path, once per repetition of every live copy —
// one compare each when the threshold comes before any search or shift.
func BenchmarkSketchdIngestBinaryRobustF0(b *testing.B) {
	benchSketchdIngestFsync(b, "kmv", "switching", client.CodecBinary, "")
}

// The WAL cells measure the durability tax over the fastest in-memory
// cell (BinaryCountSketch): every acknowledged batch is journaled before
// its ack, under the batch (background sync) and always (sync per append)
// policies.
func BenchmarkSketchdIngestBinaryWALBatch(b *testing.B) {
	benchSketchdIngestFsync(b, "countsketch", "", client.CodecBinary, "batch")
}
func BenchmarkSketchdIngestBinaryWALAlways(b *testing.B) {
	benchSketchdIngestFsync(b, "countsketch", "", client.CodecBinary, "always")
}

// benchPolicyIngest — robust-ingest throughput per policy: the per-update
// cost of one policy-wrapped f2 shard estimator, built exactly as a
// sketchd tenant builds it (same registry factory, same sizing). The
// bytes metric is the working state, so one -bench run reads out the
// space/throughput trade-off across the whole policy column: none (raw
// static sketch) vs ring (Θ(ε⁻¹log ε⁻¹) copies) vs switching (λ copies)
// vs paths (one δ₀-sized instance behind the rounding).
func benchPolicyIngest(b *testing.B, policy string) {
	cfg := server.Config{Shards: 1, Eps: 0.3, Delta: 0.05, N: 1 << 20, Seed: 1}
	ec, err := server.EngineConfig(server.TenantSpec{Sketch: "f2", Policy: policy}, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	est := ec.Factory(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Update(dist.SplitMix64(uint64(i)), 1)
	}
	b.ReportMetric(float64(est.SpaceBytes()), "bytes")
}

func BenchmarkPolicyIngestNone(b *testing.B)      { benchPolicyIngest(b, "none") }
func BenchmarkPolicyIngestRing(b *testing.B)      { benchPolicyIngest(b, "ring") }
func BenchmarkPolicyIngestSwitching(b *testing.B) { benchPolicyIngest(b, "switching") }
func BenchmarkPolicyIngestPaths(b *testing.B)     { benchPolicyIngest(b, "paths") }

// BenchmarkPolicyBuild prices what a robust tenant costs before its first
// update: one shard estimator of each cell the repository's ingest_robust
// workload declares, built by the registry factory at that sketchd's
// per-shard sizing (ε 0.3, δ 0.05 over two shards, n 2²⁰). Every copy
// draws its hash coefficients when built, so kmv+switching (96 copies of
// 17 KMVs) is mostly the seeding of 1 632 generators. Run with -benchmem.
func BenchmarkPolicyBuild(b *testing.B) {
	cfg := server.Config{Shards: 1, Eps: 0.3, Delta: 0.025, N: 1 << 20, Seed: 1}
	for _, c := range []struct {
		name, sketch, policy string
		budget               int
	}{
		{"f2+switching", "f2", "switching", 80},
		{"f2+ring", "f2", "ring", 0},
		{"kmv+switching", "kmv", "switching", 96},
		{"f2+paths", "f2", "paths", 80},
	} {
		b.Run(c.name, func(b *testing.B) {
			ec, err := server.EngineConfig(server.TenantSpec{Sketch: c.sketch, Policy: c.policy, FlipBudget: c.budget}, cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; b.Loop(); i++ {
				builtEstimator = ec.Factory(int64(i))
			}
		})
	}
}

var builtEstimator sketch.Estimator

// BenchmarkRingSteadyState is the in-process cost of one countsketch+ring
// shard, the Theorem 6.5 ring, built as the benchmark's sketchd builds it
// (ε 0.3, δ 0.05 over two shards, n 2²⁰): ns per update of a Zipf(1.2)
// stream over 2²⁰ once four full ring drains of it have gone in, so drains
// and refreshes are amortized and the first drain is not timed.
func BenchmarkRingSteadyState(b *testing.B) {
	cfg := server.Config{Shards: 1, Eps: 0.3, Delta: 0.025, N: 1 << 20, Seed: 1}
	ec, err := server.EngineConfig(server.TenantSpec{Sketch: "countsketch", Policy: "ring"}, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	var ups []sketch.Update
	for gen := stream.NewZipf(1<<20, 1<<20, 1.2, 7); ; {
		u, ok := gen.Next()
		if !ok {
			break
		}
		ups = append(ups, u)
	}
	est, i := ec.Factory(1), 4*core.PendingCap
	for _, u := range ups[:i] {
		est.Update(u.Item, u.Delta)
	}
	for b.Loop() {
		u := ups[i%len(ups)]
		est.Update(u.Item, u.Delta)
		i++
	}
}

// benchModelIngest — the stream-model column of the same trade-off: the
// per-update cost of an f2+paths shard estimator under each declared
// model, built exactly as a sketchd tenant builds it. The update stream
// is insertion-only for every cell so the numbers are apples to apples;
// the non-insertion cells differ by their flip-bound sizing (declared λ
// vs Lemma 8.2 vs the insertion-only log bound) and by publishing the
// moment ‖f‖₂² through the Indyk inner estimator.
func benchModelIngest(b *testing.B, model string, alpha float64) {
	cfg := server.Config{Shards: 1, Eps: 0.3, Delta: 0.05, N: 1 << 20, Seed: 1}
	ec, err := server.EngineConfig(server.TenantSpec{
		Sketch: "f2", Policy: "paths", Model: model, Alpha: alpha,
	}, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	est := ec.Factory(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Update(dist.SplitMix64(uint64(i)), 1)
	}
	b.ReportMetric(float64(est.SpaceBytes()), "bytes")
}

func BenchmarkModelIngestInsertion(b *testing.B)       { benchModelIngest(b, "insertion", 0) }
func BenchmarkModelIngestTurnstile(b *testing.B)       { benchModelIngest(b, "turnstile", 0) }
func BenchmarkModelIngestBoundedDeletion(b *testing.B) { benchModelIngest(b, "bounded_deletion", 4) }

// benchTopKQuery — structured-query read cost: a countsketch tenant's
// engine (built exactly as sketchd builds it, per-tenant spec included)
// answers top-10 queries over a pre-ingested Zipf stream. Each iteration
// is one top-k QueryBatch: a flush barrier plus a per-shard candidate-pool rank
// and a cross-shard merge — the server-side cost of one POST /v2/query
// topk, minus the wire.
func benchTopKQuery(b *testing.B, policy string) {
	cfg := server.Config{Seed: 1}
	ec, err := server.EngineConfig(server.TenantSpec{
		Sketch: "countsketch", Policy: policy, Eps: 0.2, Delta: 0.05, N: 1 << 20, Shards: 4,
	}, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(ec)
	defer eng.Close()
	gen := stream.NewZipf(1<<14, 200000, 1.2, 7)
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		eng.Update(u.Item, u.Delta)
	}
	// Drain the ingest queues before the clock starts: the first TopK's
	// flush barrier would otherwise absorb the whole pre-ingest backlog,
	// folding hundreds of milliseconds of ingest into one sampled
	// iteration and making the robust cell's numbers depend on b.N.
	eng.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := eng.QueryBatch(nil, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKQuery(b *testing.B)       { benchTopKQuery(b, "none") }
func BenchmarkTopKQueryRobust(b *testing.B) { benchTopKQuery(b, "ring") }

// BenchmarkRobustF0Game — end-to-end adversarial game throughput: the
// robust F0 estimator playing against the adaptive Chaser.
func BenchmarkRobustF0Game(b *testing.B) {
	alg := robust.NewF0(0.4, 0.05, 1<<20, 5)
	adv := adversary.NewChaser(1<<62, 11)
	last := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, _ := adv.Next(last, i)
		alg.Update(u.Item, u.Delta)
		last = alg.Estimate()
	}
}
