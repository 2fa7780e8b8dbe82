package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/server"
)

// Cluster benchmark cells: what clustering costs over a single node.
// BenchmarkClusterIngestReplicated prices ingest on a 3-node R=2 ring
// against its single-node twin (BenchmarkSketchdIngest*): the owner's
// hot path is identical, so the delta is the background ship rounds
// stealing cycles and the forwarding hook on every request.
// BenchmarkClusterGlobalQuery prices a global query asked of a NON-owner
// — one 307 redirect plus the owner's answer — the cluster's
// read-path tax when clients do not know the placement.

type benchClusterNode struct {
	node *cluster.Node
	srv  *server.Server
	hs   *httptest.Server
}

type benchSwap struct{ h atomic.Pointer[http.Handler] }

func (s *benchSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// bootBenchCluster builds a 3-node in-process cluster with the ship and
// probe loops running, as a deployed cluster would have.
func bootBenchCluster(b *testing.B) []*benchClusterNode {
	b.Helper()
	nodes := make([]*benchClusterNode, 3)
	urls := make([]string, 3)
	for i := range nodes {
		hs := httptest.NewServer(&benchSwap{})
		nodes[i] = &benchClusterNode{hs: hs}
		urls[i] = hs.URL
	}
	for i := range nodes {
		srv := server.New(server.Config{
			Shards: 4, Eps: 0.3, Delta: 0.05, N: 1 << 20, Seed: 1,
			MaxKeys: 64,
		})
		n, err := cluster.New(srv, cluster.Config{
			Self: urls[i], Peers: urls, Replicas: 2,
			ShipInterval: 100 * time.Millisecond, ProbeInterval: 100 * time.Millisecond,
			Forward: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		n.Start()
		h := n.Handler()
		nodes[i].hs.Config.Handler.(*benchSwap).h.Store(&h)
		nodes[i].node, nodes[i].srv = n, srv
		b.Cleanup(func() {
			n.Close()
			srv.Drain()
		})
	}
	for _, bn := range nodes {
		b.Cleanup(bn.hs.Close)
	}
	return nodes
}

// BenchmarkClusterIngestReplicated — replicated ingest overhead: batched
// updates into the keyspace owner of a 3-node R=2 cluster while the ship
// loop replicates behind the writes. Compare ns/op against
// BenchmarkSketchdIngestCountSketch for the single-node baseline.
func BenchmarkClusterIngestReplicated(b *testing.B) {
	if testing.Short() {
		b.Skip("loopback-HTTP cluster benchmark: binds TCP listeners and spins three servers; skipped under -short")
	}
	nodes := bootBenchCluster(b)
	const key = "load"
	var owner *benchClusterNode
	for _, bn := range nodes {
		if bn.node.Owner(key) == bn.hs.URL {
			owner = bn
		}
	}
	c := client.New(owner.hs.URL, &http.Client{Timeout: 30 * time.Second})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, key, client.TenantSpec{Sketch: "countsketch"}); err != nil {
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
				if err := c.Update(ctx, key, batch); err != nil {
					b.Error(err) // Fatal must not run on a RunParallel goroutine
					return
				}
				batch = batch[:0]
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(2, "replicas")
}

// BenchmarkClusterGlobalQuery — global-query latency on a 3-node
// cluster: a top-10 query posted to a node that does NOT own the
// keyspace, so every operation pays the placement redirect plus the
// owner's engine read.
func BenchmarkClusterGlobalQuery(b *testing.B) {
	if testing.Short() {
		b.Skip("loopback-HTTP cluster benchmark: binds TCP listeners and spins three servers; skipped under -short")
	}
	nodes := bootBenchCluster(b)
	const key = "global"
	var owner, other *benchClusterNode
	for _, bn := range nodes {
		if bn.node.Owner(key) == bn.hs.URL {
			owner = bn
		}
	}
	for _, bn := range nodes {
		if bn != owner {
			other = bn
			break
		}
	}
	c := client.New(owner.hs.URL, &http.Client{Timeout: 30 * time.Second})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, key, client.TenantSpec{Sketch: "countsketch"}); err != nil {
		b.Fatal(err)
	}
	batch := make([]client.Update, 0, 512)
	for i := 0; i < 1<<14; i++ {
		batch = append(batch, client.Update{Item: uint64(i % 257), Delta: 1})
		if len(batch) == cap(batch) {
			if err := c.Update(ctx, key, batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	body, err := json.Marshal(server.QueryRequest{
		Key: key, Queries: []server.Query{{Kind: server.QueryTopK, K: 10}},
	})
	if err != nil {
		b.Fatal(err)
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := hc.Post(other.hs.URL+"/cluster/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("global query status %d", resp.StatusCode)
		}
	}
}
