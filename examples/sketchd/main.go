// Example sketchd: the full service workflow in one process — boot two
// sketchd instances on loopback listeners, declare multi-tenant keyspaces
// with per-tenant TenantSpecs over the v2 API (an adversarially robust L2
// tracker sized at its own ε, and a mergeable CountSketch), ingest a Zipf
// stream through the Go client, read estimates, structured point and
// top-k answers with their ε-derived error bounds, ship a binary snapshot
// from one server into the other, and finish with a graceful drain.
//
//	go run ./examples/sketchd
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/stream"
)

// boot starts a sketchd instance on a loopback listener and returns a
// client for it plus a shutdown func.
func boot(cfg server.Config) (*client.Client, *server.Server, func()) {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	shutdown := func() { srv.Drain(); _ = hs.Close() }
	return client.New("http://"+ln.Addr().String(), nil), srv, shutdown
}

func main() {
	ctx := context.Background()
	// Two servers sharing -seed: tenants created with identical specs are
	// snapshot-compatible across them.
	cfg := server.Config{Shards: 2, Eps: 0.2, Delta: 0.05, N: 1 << 20, Seed: 42, MaxKeys: 8}
	cEdge, _, stopEdge := boot(cfg)
	cAgg, aggSrv, stopAgg := boot(cfg)
	defer stopEdge()
	defer stopAgg()

	// Declarative tenants on the edge server, each sized from its own
	// spec: a robust L2-norm tracker at a tighter ε than the server
	// default (safe to query adaptively — the paper's whole point) and a
	// mergeable CountSketch answering point and top-k queries.
	norms, err := cEdge.CreateTenant(ctx, "norms", client.TenantSpec{
		Sketch: "f2", Policy: "ring", Eps: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	hot, err := cEdge.CreateTenant(ctx, "hot-items", client.TenantSpec{
		Sketch: "countsketch", Eps: 0.15,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("declared %s+%s (ε=%g) and %s+%s (ε=%g, point queries: %v)\n",
		norms.Sketch, norms.Policy, norms.Spec.Eps,
		hot.Sketch, hot.Policy, hot.Spec.Eps, hot.PointQueries)

	// Ingest one Zipf stream into both keyspaces, batched.
	truth := stream.NewFreq()
	gen := stream.NewZipf(1<<12, 50000, 1.2, 7)
	batch := make([]client.Update, 0, 1024)
	send := func() {
		for _, key := range []string{"norms", "hot-items"} {
			if err := cEdge.Update(ctx, key, batch); err != nil {
				log.Fatal(err)
			}
		}
		batch = batch[:0]
	}
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		truth.Apply(u)
		if batch = append(batch, client.Update{Item: u.Item, Delta: u.Delta}); len(batch) == cap(batch) {
			send()
		}
	}
	send()

	est, err := cEdge.Estimate(ctx, "norms")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("f2+ring     estimate %.1f  truth ‖f‖₂ = %.1f\n", est, truth.L2())

	// Structured queries: the Section 6 heavy hitters machinery over
	// HTTP. One batch answers the moment estimate, a point query, and the
	// top-5 candidate set coherently (same flushed stream prefix), each
	// answer carrying the tenant's ε-derived error bound.
	top, err := cEdge.TopK(ctx, "hot-items", 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-5 heavy hitters (countsketch candidates vs exact):")
	for _, iw := range top {
		fmt.Printf("  item %6d  estimated %7.0f  true %7d\n", uint64(iw.Item), iw.Weight, truth.Count(uint64(iw.Item)))
	}
	if len(top) > 0 {
		v, bound, err := cEdge.QueryPoint(ctx, "hot-items", uint64(top[0].Item))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("point query f[%d] = %.0f ± %.0f (ε·‖f‖₂)\n", uint64(top[0].Item), v, bound)
	}

	// Snapshot the mergeable keyspace and fold it into the aggregator —
	// the distributed pattern: edges ingest locally, snapshots merge up.
	// The destination tenant needs the same spec (seed and shards
	// included) for its shard randomness to line up.
	if _, err := cAgg.CreateTenant(ctx, "hot-items", client.TenantSpec{
		Sketch: "countsketch", Eps: 0.15,
	}); err != nil {
		log.Fatal(err)
	}
	snap, err := cEdge.Snapshot(ctx, "hot-items")
	if err != nil {
		log.Fatal(err)
	}
	if err := cAgg.Merge(ctx, "hot-items", snap); err != nil {
		log.Fatal(err)
	}
	estAgg, _ := cAgg.Estimate(ctx, "hot-items")
	fmt.Printf("merged into aggregator: estimate %.3g (%d-byte snapshot, identical state)\n", estAgg, len(snap))

	// Robust ensembles are not linear-mergeable; the server says so.
	if _, err := cEdge.Snapshot(ctx, "norms"); err != nil {
		fmt.Printf("snapshot of robust keyspace refused: %v\n", err)
	}

	// Graceful drain: a batch lands whole before the drain or not at all,
	// later writes turn into retryable 503s (client.UpdateRetry resends the
	// whole batch), and reads still serve the fully flushed state.
	aggSrv.Drain()
	if err := cAgg.Add(ctx, "hot-items", 1); err != nil {
		fmt.Printf("update after drain refused: %v\n", err)
	}
	estDrained, err := cAgg.Estimate(ctx, "hot-items")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimate after drain still serves: %.3g\n", estDrained)
}
