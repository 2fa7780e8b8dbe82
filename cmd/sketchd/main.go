// Command sketchd serves the repository's streaming estimators as a
// multi-tenant network service: declarative per-tenant keyspaces
// (POST /v2/keys with a TenantSpec — each tenant sized from its own ε, δ,
// n, shards and flip budget), batched JSON or binary-frame ingest,
// structured queries (POST /v2/query: estimate | point | topk answers
// with ε-derived error bounds), flushed estimate reads, and binary
// snapshot/merge state transfer between instances. A tenant's
// sketch × policy cell is always its owner's declaration — no flag picks
// one — and the flags below are the sizing defaults and caps a TenantSpec
// falls back to; see internal/server for the API and README.md for a
// walkthrough.
//
// Usage:
//
//	sketchd -addr :8080 -eps 0.2 -max-keys 64
//	sketchd -addr :8080 -data-dir /var/lib/sketchd -fsync always
//	sketchd -addr :9001 -node http://10.0.0.1:9001 \
//	        -peers http://10.0.0.1:9001,http://10.0.0.2:9001,http://10.0.0.3:9001 \
//	        -replicas 2
//
// With -data-dir set, sketchd is durable: every acknowledged mutation is
// journaled to a write-ahead log before the HTTP ack, mergeable tenants
// are checkpointed every -checkpoint-every updates, and a restart — clean
// or after a crash — recovers every keyspace (see internal/wal and the
// README's Durability section). The listener binds before recovery
// starts: while the log replays, every request answers a retryable 503
// ("recovering", visible on GET /v1/healthz), so a restarting node is
// probeable without serving partial state.
//
// With -peers set, sketchd joins a cluster: a rendezvous-hash ring
// places every keyspace on an owner plus -replicas−1 replicas, the owner
// ships snapshots to its replicas every -ship-interval, a probing
// failure detector fails ownership over when a node dies, and any node
// 307-redirects tenant traffic to the owner (see internal/cluster and
// the README's Cluster section; cmd/sketchctl is the operator CLI).
//
// On SIGINT/SIGTERM the server drains gracefully: in-flight requests
// finish, new writes get a retryable 503, every keyspace engine is
// flushed and closed so late reads still see the full ingested stream,
// and (when durable) final checkpoints land before exit. A second signal
// during the drain kills the process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, stop, os.Args[1:], nil); err != nil {
		log.Fatalf("sketchd: %v", err)
	}
}

// recoveringHandler answers every request with a retryable 503 while the
// write-ahead log replays: the listener is already bound (so probes and
// balancers see a live socket, not a connection refusal), but no state
// is served until recovery finishes and the real handler is swapped in.
var recoveringHandler http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusServiceUnavailable)
	if r.URL.Path == "/v1/healthz" {
		fmt.Fprintln(w, `{"status":"recovering","draining":false,"recovering":true}`)
		return
	}
	fmt.Fprintln(w, `{"error":"recovering: write-ahead log replay in progress; retry shortly"}`)
})

// listen is a variable so a test can close the listener under a running server.
var listen = net.Listen

// run is the whole server lifecycle, factored out of main so tests can
// drive it: parse args, bind the listener, open (and recover) the server
// behind a recovering stub, serve until ctx is cancelled, then drain and
// shut down. stop restores default signal handling; run calls it as soon
// as ctx fires, so a second SIGINT or SIGTERM during a stuck drain
// force-kills the process instead of being swallowed by the
// still-installed handler. If ready is non-nil, the bound listen address
// is sent on it once the server is accepting.
func run(ctx context.Context, stop func(), args []string, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("sketchd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		maxKeys   = fs.Int("max-keys", 64, "server-wide keyspace quota")
		shards    = fs.Int("shards", 4, "engine shards per static keyspace; a robust spec without shards runs on 1")
		eps       = fs.Float64("eps", 0.2, "default per-keyspace accuracy target ε (overridable per tenant via TenantSpec)")
		delta     = fs.Float64("delta", 0.05, "default per-keyspace failure probability δ (split δ/shards per shard instance; overridable per tenant)")
		n         = fs.Uint64("n", 1<<32, "universe size bound for the robust constructors")
		seed      = fs.Int64("seed", 1, "root randomness seed (servers exchanging snapshots or clustering must share it)")
		budget    = fs.Int("flip-budget", 64, "flip budget λ for the switching and paths policies (published-output changes the robustness guarantee covers; /v1/stats reports consumption)")
		drainT    = fs.Duration("drain-timeout", 10*time.Second, "maximum time to wait for in-flight requests on shutdown")
		dataDir   = fs.String("data-dir", "", "directory for the write-ahead log and checkpoints (empty: in-memory only)")
		fsync     = fs.String("fsync", "always", "WAL sync policy: always (every ack survives power loss), batch (background sync, bounded loss window), none (OS page cache)")
		ckptEvery = fs.Int("checkpoint-every", 1<<17, "applied updates between automatic checkpoints of a mergeable keyspace (bounds replay-on-boot)")

		peers     = fs.String("peers", "", "comma-separated base URLs of every cluster member (empty: standalone)")
		node      = fs.String("node", "", "this node's advertised base URL, e.g. http://10.0.0.1:9001 (required with -peers)")
		replicas  = fs.Int("replicas", 2, "replication factor R: each keyspace lives on its owner plus R-1 replicas")
		shipEvery = fs.Duration("ship-interval", 2*time.Second, "replication cadence; replicas are bounded-stale by at most this interval")
		probeT    = fs.Duration("probe-interval", time.Second, "failure-detector probe cadence")
		suspect   = fs.Int("suspect-after", 3, "consecutive failed probes before a peer is declared down")
		forward   = fs.Bool("forward", true, "redirect tenant traffic to the keyspace owner and replicate (false: independently ingesting fleet, query with merge=all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peers != "" && *node == "" {
		return fmt.Errorf("-peers requires -node (this node's advertised base URL)")
	}

	// Bind before recovery: a restarting durable node is immediately
	// probeable (and answers retryable 503s) instead of refusing
	// connections for as long as log replay takes.
	ln, err := listen("tcp", *addr)
	if err != nil {
		return err
	}
	var handler atomic.Pointer[http.Handler]
	handler.Store(&recoveringHandler)
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	})}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	srv, err := server.Open(server.Config{
		MaxKeys:         *maxKeys,
		Shards:          *shards,
		Eps:             *eps,
		Delta:           *delta,
		N:               *n,
		Seed:            *seed,
		FlipBudget:      *budget,
		DataDir:         *dataDir,
		Fsync:           *fsync,
		CheckpointEvery: *ckptEvery,
	})
	if err != nil {
		hs.Close() // a held data directory (wal.ErrLocked) too: the stub stops serving
		<-errc     // and Serve, which closes the listener, has returned
		return err
	}
	if srv.Durable() {
		rec := srv.Recovery()
		log.Printf("sketchd: recovered %d keyspaces from %s (%d updates replayed, %d torn WAL bytes truncated, %d segments quarantined, %d checkpoints skipped)",
			rec.Tenants, *dataDir, rec.ReplayedUpdates, rec.WAL.TruncatedBytes, rec.WAL.DroppedSegments, rec.SkippedCheckpoints)
	}

	var cnode *cluster.Node
	live := srv.Handler()
	if *peers != "" {
		cnode, err = cluster.New(srv, cluster.Config{
			Self:          *node,
			Peers:         strings.Split(*peers, ","),
			Replicas:      *replicas,
			ShipInterval:  *shipEvery,
			ProbeInterval: *probeT,
			SuspectAfter:  *suspect,
			Forward:       *forward,
		})
		if err != nil {
			ln.Close()
			return errors.Join(err, srv.Shutdown())
		}
		cnode.Start()
		live = cnode.Handler()
		log.Printf("sketchd: clustered as %s (%d members, R=%d, ship every %s, forward=%v)",
			*node, len(strings.Split(*peers, ",")), *replicas, *shipEvery, *forward)
	}
	handler.Store(&live)

	log.Printf("sketchd listening on %s (ε=%g δ=%g, %d shards/static key, quota %d keys, durable=%v)",
		ln.Addr(), *eps, *delta, *shards, *maxKeys, srv.Durable())
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case err := <-errc:
		// The listener died: still a durable exit, final checkpoints and log close included.
		if cnode != nil {
			cnode.Close()
		}
		return errors.Join(err, srv.Shutdown())
	case <-ctx.Done():
	}
	// Restore default signal handling before draining, not after: the
	// drain below can take up to -drain-timeout, and an operator's (or
	// init system's) second signal during it must kill the process, not
	// vanish into an already-fired NotifyContext.
	stop()

	log.Printf("sketchd: signal received, draining (timeout %s)", *drainT)
	// Stop the cluster loops first (no half-drained state ships out),
	// then drain: every keyspace engine is flushed and closed, so
	// in-flight and late writes get retryable 503s (not panics or
	// connection errors) while reads keep serving the final state; then
	// Shutdown stops the listener and waits for in-flight requests; then
	// the durable layer writes final checkpoints and closes the log.
	if cnode != nil {
		cnode.Close()
	}
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("sketchd: shutdown: %v", err)
	}
	if err := srv.Shutdown(); err != nil {
		return err
	}
	log.Printf("sketchd: drained, exiting")
	return nil
}
