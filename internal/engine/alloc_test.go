package engine

import (
	"testing"

	"repro/internal/robust"
	"repro/internal/sketch"
)

// nullEst is a do-nothing estimator: benchmarking the engine against it
// isolates the pipeline's own routing→append→coalesce→handoff cost from
// estimator cost.
type nullEst struct{}

func (nullEst) Update(uint64, int64) {}
func (nullEst) Estimate() float64    { return 0 }
func (nullEst) SpaceBytes() int      { return 0 }

// TestSteadyStateZeroAllocs pins the zero-allocation contract of the ingest
// spine: once the batch-buffer pool is warm, Update must not allocate — not
// in the producer (append + handoff), not in the worker (coalesce + apply +
// publish). The assertion uses testing.Benchmark so the measurement is the
// same one `go test -bench -benchmem` reports.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc contract is checked in non-race runs")
	}
	e := New(Config{
		Shards:  2,
		Batch:   256,
		Seed:    1,
		Factory: func(int64) sketch.Estimator { return nullEst{} },
	})
	defer e.Close()
	// Warm the pools and the coalescing scratch past their growth phase.
	for i := 0; i < 1<<14; i++ {
		e.Update(uint64(i), 1)
	}
	e.Flush()
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Update(uint64(i), 1)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("steady-state Update: %d allocs/op (%d B/op), want 0", a, res.AllocedBytesPerOp())
	}

	// Apply too: the routing scratch and the part ends ride pooled buffers.
	batch := make([]Update, 700)
	for i := range batch {
		batch[i] = Update{Item: uint64(i % 300), Delta: 1}
	}
	for i := 0; i < 64; i++ {
		e.Apply(batch)
	}
	e.Flush()
	res = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Apply(batch)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("steady-state Apply: %d allocs/op (%d B/op), want 0", a, res.AllocedBytesPerOp())
	}
}

// BenchmarkEngineSteadyState measures the pipeline against the null
// estimator — the engine's own overhead per update, fed as Apply of
// Shards×Batch-update chunks so each shard coalesces a full buffer at a
// time. Run with -benchmem: the allocs/op column must read 0.
func BenchmarkEngineSteadyState(b *testing.B) {
	const shards, batch = 2, 256
	e := New(Config{
		Shards:  shards,
		Batch:   batch,
		Seed:    1,
		Factory: func(int64) sketch.Estimator { return nullEst{} },
	})
	defer e.Close()
	chunk := make([]Update, 0, shards*batch)
	for i := 0; i < 1<<14; i += cap(chunk) {
		chunk = chunk[:0]
		for j := 0; j < cap(chunk); j++ {
			chunk = append(chunk, Update{Item: uint64(i + j), Delta: 1})
		}
		e.Apply(chunk)
	}
	e.Flush()
	chunk = chunk[:0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if chunk = append(chunk, Update{Item: uint64(i), Delta: 1}); len(chunk) == cap(chunk) {
			e.Apply(chunk)
			chunk = chunk[:0]
		}
	}
	e.Apply(chunk)
}

// TestSteadyStateZeroAllocsRobustF0 extends the contract through a robust
// tenant's estimator: dense switching over median-of-KMV copies reads the
// active copy's estimate after every update and drains its lag buffer —
// coalescing it — every 16 384, and none of that may allocate once the
// buffers have grown. The stream revisits a fixed universe, so past the
// warm-up no KMV set changes and no switch builds a new copy.
func TestSteadyStateZeroAllocsRobustF0(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc contract is checked in non-race runs")
	}
	e := New(Config{
		Shards: 2,
		Batch:  256,
		Seed:   1,
		Factory: func(seed int64) sketch.Estimator {
			est, err := robust.Policy{Kind: robust.Switching, Budget: 64, KCap: 64}.Wrap(0.5, 0.05, 1<<16, seed, robust.F0Problem())
			if err != nil {
				t.Fatal(err)
			}
			return est
		},
	})
	defer e.Close()
	const universe = 1 << 12
	for i := 0; i < 1<<17; i++ { // four drains per shard
		e.Update(uint64(i%universe), 1)
	}
	e.Flush()
	if r := e.Read().Robustness; r.Exhausted || r.Copies < 2*8 {
		t.Fatalf("robustness %+v after the warm-up; the drains need trailing copies to feed", r)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Update(uint64(i%universe), 1)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("steady-state Update: %d allocs/op (%d B/op), want 0", a, res.AllocedBytesPerOp())
	}
}
