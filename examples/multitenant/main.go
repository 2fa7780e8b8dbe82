// multitenant ingests the event streams of several concurrent tenants
// through the sharded engine (internal/engine): each tenant pushes its own
// Zipf-distributed traffic from its own goroutine into one shared engine
// whose shards hold independent adversarially robust F0 estimators
// (Theorem 1.1). Items are hash-routed, so tenant streams interleave
// freely; per-shard distinct counts recombine by summation because the
// shards partition the item space.
//
// A monitor goroutine reads the flushed estimate while ingestion is
// running — a read decides when the shards do their work, never what their
// estimators see — and the final Close'd estimate is checked against the
// exact distinct count.
//
// Run with: go run ./examples/multitenant
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/robust"
	"repro/internal/sketch"
	"repro/internal/stream"
)

const (
	tenants   = 6
	perTenant = 15000   // events per tenant
	universe  = 1 << 14 // per-tenant user universe
	eps       = 0.25
)

func main() {
	eng := engine.New(engine.Config{
		Shards: 8,
		Batch:  256,
		Seed:   42,
		Factory: func(seed int64) sketch.Estimator {
			return robust.NewF0(eps, 0.05, uint64(tenants)<<20, seed)
		},
	})

	// Exact ground truth, merged from per-tenant exact counts at the end
	// (tenant id in the high bits keeps user spaces disjoint).
	truths := make([]*stream.Freq, tenants)
	var ingested atomic.Int64

	var producers sync.WaitGroup
	start := time.Now()
	for tenant := 0; tenant < tenants; tenant++ {
		producers.Add(1)
		go func(tenant int) {
			defer producers.Done()
			truth := stream.NewFreq()
			truths[tenant] = truth
			// Tenants have different skews: tenant 0 is near-uniform,
			// later tenants increasingly concentrated.
			g := stream.NewZipf(universe, perTenant, 1.05+0.1*float64(tenant), int64(tenant)+7)
			for {
				u, ok := g.Next()
				if !ok {
					return
				}
				item := uint64(tenant)<<20 | u.Item
				eng.Update(item, u.Delta)
				truth.Apply(stream.Update{Item: item, Delta: u.Delta})
				ingested.Add(1)
			}
		}(tenant)
	}

	// Live monitor: estimates while producers are running.
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for ingested.Load() < tenants*perTenant {
			<-tick.C
			fmt.Printf("  [monitor] ingested≈%-7d distinct users ≈ %.0f\n",
				ingested.Load(), eng.Estimate())
		}
	}()

	producers.Wait()
	<-monitorDone
	eng.Close()
	elapsed := time.Since(start)

	var totalDistinct float64
	fmt.Println("\n=== per-tenant truth ===")
	for tenant, truth := range truths {
		fmt.Printf("  tenant %d: %6.0f distinct users in %d events\n",
			tenant, truth.F0(), perTenant)
		totalDistinct += truth.F0()
	}

	got := eng.Estimate()
	relErr := (got - totalDistinct) / totalDistinct
	fmt.Println("\n=== global (sharded robust F0) ===")
	fmt.Printf("  events ingested:   %d across %d tenants in %v (%.0f k ev/s)\n",
		ingested.Load(), tenants, elapsed.Round(time.Millisecond),
		float64(ingested.Load())/elapsed.Seconds()/1e3)
	fmt.Printf("  exact distinct:    %.0f\n", totalDistinct)
	fmt.Printf("  engine estimate:   %.0f  (rel err %+.3f, ε=%.2f)\n", got, relErr, eps)
	r := eng.Read()
	fmt.Printf("  shards: %d, space %d KiB\n", eng.Shards(), r.SpaceBytes/1024)
	for i, se := range r.Shards {
		fmt.Printf("    shard %d: ≈%6.0f distinct, mass %d\n", i, se.Estimate, se.Mass)
	}
}
