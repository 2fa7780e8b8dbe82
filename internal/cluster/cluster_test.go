package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/waltest"
)

// ---------------------------------------------------------------------------
// Placement

func TestRankDeterministicAndTotal(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}
	for _, key := range []string{"tenant-a", "tenant-b", "", "日本語", strings.Repeat("x", 300)} {
		r1 := rank(nodes, key)
		r2 := rank(nodes, key)
		if len(r1) != len(nodes) {
			t.Fatalf("rank(%q) returned %d nodes, want %d", key, len(r1), len(nodes))
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("rank(%q) not deterministic: %v vs %v", key, r1, r2)
			}
		}
		seen := map[string]bool{}
		for _, a := range r1 {
			if seen[a] {
				t.Fatalf("rank(%q) repeats %q: %v", key, a, r1)
			}
			seen[a] = true
		}
	}
}

// Rendezvous stability: removing one node from the member list must not
// move any key whose owner was a surviving node.
func TestRankStableUnderRemoval(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	const removed = "http://c:1"
	var survivors []string
	for _, n := range nodes {
		if n != removed {
			survivors = append(survivors, n)
		}
	}
	moved, total := 0, 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("tenant-%d", i)
		before := rank(nodes, key)[0]
		after := rank(survivors, key)[0]
		total++
		if before != removed && before != after {
			t.Fatalf("key %q owned by survivor %q moved to %q after removing %q", key, before, after, removed)
		}
		if before == removed {
			moved++
		}
	}
	// Sanity: the removed node owned roughly a quarter of the keyspace.
	if moved == 0 || moved == total {
		t.Fatalf("degenerate placement: removed node owned %d of %d keys", moved, total)
	}
}

func TestRankBalance(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[rank(nodes, fmt.Sprintf("tenant-%d", i))[0]]++
	}
	for _, n := range nodes {
		frac := float64(counts[n]) / keys
		if frac < 0.20 || frac > 0.47 {
			t.Fatalf("node %s owns %.1f%% of keys, want roughly a third: %v", n, frac*100, counts)
		}
	}
}

// ---------------------------------------------------------------------------
// In-process cluster harness

// swapHandler lets an httptest server start before the Node that will
// serve it exists: the URLs must be known to build the peer list.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "booting", http.StatusServiceUnavailable)
}

type testNode struct {
	node *Node
	srv  *server.Server
	hs   *httptest.Server
	url  string
}

// bootCluster builds size in-process nodes sharing one member list. The
// probe/ship loops are NOT started — tests drive probeAll/shipRound
// directly for determinism.
func bootCluster(t *testing.T, size, replicas int, forward bool) []*testNode {
	t.Helper()
	cfg := server.Config{Shards: 2, Eps: 0.25, Delta: 0.05, N: 1 << 20, Seed: 42, MaxKeys: 64}
	nodes := make([]*testNode, size)
	urls := make([]string, size)
	// The listeners must exist first: every node's peer list needs all
	// URLs, so the handlers are mounted in a second pass.
	for i := range nodes {
		hs := httptest.NewServer(&swapHandler{})
		t.Cleanup(hs.Close)
		nodes[i] = &testNode{hs: hs, url: hs.URL}
		urls[i] = hs.URL
	}
	for i := range nodes {
		srv := server.New(cfg)
		t.Cleanup(func() { srv.Drain() })
		n, err := New(srv, Config{
			Self: urls[i], Peers: urls, Replicas: replicas,
			Forward: forward, SuspectAfter: 2,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(n.Close)
		nodes[i].node, nodes[i].srv = n, srv
		h := n.Handler()
		sw := nodes[i].hs.Config.Handler.(*swapHandler)
		sw.h.Store(&h)
	}
	return nodes
}

func byAddr(nodes []*testNode, addr string) *testNode {
	for _, tn := range nodes {
		if tn.url == addr {
			return tn
		}
	}
	return nil
}

// markDown simulates the detector declaring victim dead on every node.
func markDown(nodes []*testNode, victim string) {
	for _, tn := range nodes {
		if tn.url == victim {
			continue
		}
		if p := tn.node.peers[victim]; p != nil {
			p.down.Store(true)
		}
	}
}

func mustEstimate(t *testing.T, c *client.Client, key string) float64 {
	t.Helper()
	est, err := c.Estimate(context.Background(), key)
	if err != nil {
		t.Fatalf("estimate %q: %v", key, err)
	}
	return est
}

// ---------------------------------------------------------------------------
// Replication, forwarding, failover

func TestShipReplicatesAndFailsOver(t *testing.T) {
	nodes := bootCluster(t, 3, 2, true)
	ctx := context.Background()
	const key = "ship-tenant"

	owner := byAddr(nodes, nodes[0].node.Owner(key))
	oc := client.New(owner.url, owner.hs.Client())
	if _, err := oc.CreateTenant(ctx, key, client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	items := make([]uint64, 0, 500)
	for i := uint64(0); i < 500; i++ {
		items = append(items, i%64)
	}
	if err := oc.Add(ctx, key, items...); err != nil {
		t.Fatalf("add: %v", err)
	}
	want := mustEstimate(t, oc, key)

	if n := owner.node.shipRound(); n == 0 {
		t.Fatalf("ship round applied 0 shipments, want >= 1")
	}
	reps := owner.node.Replicas(key)
	if len(reps) != 2 || reps[0] != owner.url {
		t.Fatalf("replica set %v, want [%s, other]", reps, owner.url)
	}
	replica := byAddr(nodes, reps[1])
	if !slices.Contains(replica.srv.Keys(), key) {
		t.Fatalf("replica %s does not hold %q after ship", replica.url, key)
	}

	// Same seed, same state: the replica's copy answers identically.
	rresp, _, err := replica.srv.AnswerLocal(&server.QueryRequest{
		Key: key, Queries: []server.Query{{Kind: server.QueryEstimate}},
	})
	if err != nil {
		t.Fatalf("replica answer: %v", err)
	}
	if got := rresp.Answers[0].Value; got != want {
		t.Fatalf("replica estimate %v, want exactly %v", got, want)
	}

	// Kill the owner: placement on survivors moves to the replica, and a
	// query routed anywhere lands on a node with the shipped state.
	owner.hs.Close()
	markDown(nodes, owner.url)
	if got := replica.node.Owner(key); got != replica.url {
		t.Fatalf("post-failover owner %s, want replica %s", got, replica.url)
	}
	third := byAddr(nodes, nodes[0].node.Place(key)[2])
	tc := client.New(third.url, third.hs.Client())
	if got := mustEstimate(t, tc, key); got != want {
		t.Fatalf("post-failover estimate via third node = %v, want %v", got, want)
	}
}

// A replica promoted before its owner ever shipped to it knows nothing of
// the tenant, and must say so: a 404 tells the client the declaration was
// lost, where admitting a default-shaped tenant on first touch would answer
// 200 from a sketch the owner never declared.
func TestPromotedReplicaDoesNotFabricateTenant(t *testing.T) {
	nodes := bootCluster(t, 2, 2, true) // ship loops not started: nothing ships
	ctx := context.Background()
	const key = "unshipped-tenant"

	owner := byAddr(nodes, nodes[0].node.Owner(key))
	oc := client.New(owner.url, owner.hs.Client())
	if _, err := oc.CreateTenant(ctx, key, client.TenantSpec{Sketch: "kmv"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	survivor := byAddr(nodes, owner.node.Replicas(key)[1])
	owner.hs.Close()
	markDown(nodes, owner.url)
	if got := survivor.node.Owner(key); got != survivor.url {
		t.Fatalf("post-failover owner %s, want survivor %s", got, survivor.url)
	}

	sc := client.New(survivor.url, survivor.hs.Client())
	if err := sc.Add(ctx, key, 1, 2, 3); client.StatusCode(err) != http.StatusNotFound {
		t.Errorf("update for a tenant the survivor never received: %v, want HTTP 404", err)
	}
	if st, err := sc.Stats(ctx); err != nil || st.Keys != 0 {
		t.Errorf("survivor stats = %+v (%v), want no tenant", st, err)
	}
}

func TestForwardingRedirectsToOwner(t *testing.T) {
	nodes := bootCluster(t, 3, 2, true)
	ctx := context.Background()
	const key = "fwd-tenant"
	owner := nodes[0].node.Owner(key)
	nonOwner := byAddr(nodes, nodes[0].node.Place(key)[2])

	// The Go client follows the 307 transparently; the tenant must land
	// on the owner, not the node the client spoke to.
	c := client.New(nonOwner.url, nonOwner.hs.Client())
	if _, err := c.CreateTenant(ctx, key, client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatalf("create via non-owner: %v", err)
	}
	if err := c.Add(ctx, key, 1, 2, 3); err != nil {
		t.Fatalf("add via non-owner: %v", err)
	}
	if slices.Contains(nonOwner.srv.Keys(), key) {
		t.Fatalf("non-owner %s holds %q locally; should have redirected", nonOwner.url, key)
	}
	if !slices.Contains(byAddr(nodes, owner).srv.Keys(), key) {
		t.Fatalf("owner %s does not hold %q", owner, key)
	}
	if got := mustEstimate(t, c, key); got <= 0 {
		t.Fatalf("estimate via non-owner = %v, want > 0", got)
	}
}

// TestClusterQueryIsV2Query: without ?merge=all, POST /cluster/query is
// the owner's POST /v2/query, answers and refusals byte for byte, and a
// non-owner redirects it to the owner's /cluster/query.
func TestClusterQueryIsV2Query(t *testing.T) {
	nodes := bootCluster(t, 3, 2, true)
	ctx := context.Background()
	const key = "same-path"
	owner := byAddr(nodes, nodes[0].node.Owner(key))
	c := client.New(owner.url, owner.hs.Client())
	if _, err := c.CreateTenant(ctx, key, client.TenantSpec{Sketch: "countsketch", Policy: "ring"}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 40; i++ {
		if err := c.Add(ctx, key, i%7, i%13, 3); err != nil {
			t.Fatal(err)
		}
	}
	post := func(h http.Handler, path, body string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	absent := "absent"
	for i := 0; nodes[0].node.Owner(absent) != owner.url; i++ {
		absent = fmt.Sprint("absent-", i)
	}
	for _, body := range []string{
		`{"key":"same-path","queries":[{"kind":"estimate"},{"kind":"point","item":3},{"kind":"topk","k":4},{"kind":"topk"}]}`,
		`{"key":"same-path","queries":[{"kind":"topk","k":5000}]}`,
		`{"key":"same-path","queries":[{"kind":"point","items":[1,2,3,50]}]}`,
		`{"key":"` + absent + `","queries":[{"kind":"estimate"}]}`,
	} {
		got, want := post(owner.node.Handler(), "/cluster/query", body), post(owner.node.Handler(), "/v2/query", body)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%s: /cluster/query HTTP %d %s, /v2/query HTTP %d %s", body, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
		}
	}
	nonOwner := byAddr(nodes, nodes[0].node.Place(key)[2])
	w := post(nonOwner.node.Handler(), "/cluster/query", `{"key":"same-path","queries":[{"kind":"estimate"}]}`)
	if loc := w.Header().Get("Location"); w.Code != http.StatusTemporaryRedirect || loc != owner.url+"/cluster/query" {
		t.Fatalf("non-owner: HTTP %d to %q, want 307 to %s/cluster/query", w.Code, loc, owner.url)
	}
}

// A deposed owner's late ship must not roll the promoted owner back.
func TestStaleShipRejected(t *testing.T) {
	nodes := bootCluster(t, 3, 2, true)
	ctx := context.Background()
	const key = "stale-tenant"
	owner := byAddr(nodes, nodes[0].node.Owner(key))
	oc := client.New(owner.url, owner.hs.Client())
	if _, err := oc.CreateTenant(ctx, key, client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if err := oc.Add(ctx, key, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	owner.node.shipRound()
	replica := byAddr(nodes, owner.node.Replicas(key)[1])
	want := mustEstimate(t, oc, key)

	// Promote the replica (owner "dies"), ingest more there, then the old
	// owner comes back and re-ships its stale copy.
	markDown(nodes, owner.url)
	rc := client.New(replica.url, replica.hs.Client())
	if err := rc.Add(ctx, key, 7, 8, 9, 10); err != nil {
		t.Fatal(err)
	}
	grown := mustEstimate(t, rc, key)
	if grown == want {
		t.Fatalf("estimate did not grow after post-failover ingest")
	}
	replica.node.shipRound() // promoted owner ships at a fresh, higher seq

	// The deposed owner never learned it was declared dead: it still ships
	// its stale copy on its own cadence. The promoted owner's sequence is
	// at or past the stale one, so the ship must bounce.
	owner.node.shipRound()
	resp, _, err := replica.srv.AnswerLocal(&server.QueryRequest{
		Key: key, Queries: []server.Query{{Kind: server.QueryEstimate}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Answers[0].Value; got != grown {
		t.Fatalf("stale ship rolled the promoted owner back: %v, want %v", got, grown)
	}
}

// A robust tenant ships as its declaration alone. When the replica's handoff
// push reaches a restarted durable owner, which recovered the tenant from
// its log under that same declaration, the owner must keep what it
// recovered instead of replacing it with an empty rebuild.
func TestHandoffKeepsRecoveredRobustTenant(t *testing.T) {
	nodes := bootCluster(t, 2, 2, true)
	ctx := context.Background()
	const key = "robust-tenant"
	owner := byAddr(nodes, nodes[0].node.Owner(key))
	replica := byAddr(nodes, owner.node.Replicas(key)[1])
	cfg := server.Config{Shards: 2, Eps: 0.25, Delta: 0.05, N: 1 << 20, Seed: 42, MaxKeys: 64, DataDir: t.TempDir(), Fsync: "none"}
	// boot replaces the owner's server and Node with a durable server opened
	// on cfg.DataDir, serving on the owner's listener.
	boot := func() {
		owner.node.Close()
		owner.srv.Drain() // a crash: no Shutdown, the log is all there is
		if owner.srv.Durable() {
			cfg.DataDir = waltest.Crash(t, cfg.DataDir)
		}
		srv, err := server.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Drain)
		n, err := New(srv, Config{Self: owner.url, Peers: []string{nodes[0].url, nodes[1].url}, Replicas: 2, Forward: true, SuspectAfter: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		h := n.Handler()
		owner.hs.Config.Handler.(*swapHandler).h.Store(&h)
		owner.node, owner.srv = n, srv
	}
	read := func() (float64, int) {
		t.Helper()
		resp, _, err := owner.srv.AnswerLocal(&server.QueryRequest{Key: key, Queries: []server.Query{{Kind: server.QueryEstimate}}})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Answers[0].Value, resp.Robustness.Switches
	}

	boot()
	oc := client.New(owner.url, owner.hs.Client())
	if _, err := oc.CreateTenant(ctx, key, client.TenantSpec{Sketch: "f2", Policy: "switching"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		items := make([]uint64, 100)
		for j := range items {
			items[j] = uint64((i*100 + j) % 97)
		}
		if err := oc.Add(ctx, key, items...); err != nil {
			t.Fatal(err)
		}
	}
	if n := owner.node.shipRound(); n == 0 {
		t.Fatal("the owner shipped its declaration nowhere")
	}
	wantEst, wantSwitches := read()
	if wantEst == 0 || wantSwitches == 0 {
		t.Fatalf("(estimate, switches) = (%v, %d) before the restart; the comparison below would be vacuous", wantEst, wantSwitches)
	}

	boot()
	if est, switches := read(); est != wantEst || switches != wantSwitches {
		t.Fatalf("recovered (estimate, switches) = (%v, %d), before the restart (%v, %d)", est, switches, wantEst, wantSwitches)
	}
	replica.node.shipRound() // the handoff push: the restarted owner holds no sequence yet
	if est, switches := read(); est != wantEst || switches != wantSwitches {
		t.Errorf("after the replica's ship round (estimate, switches) = (%v, %d), recovered (%v, %d)", est, switches, wantEst, wantSwitches)
	}
}

// ---------------------------------------------------------------------------
// Global queries

func TestClusterQueryMergeAll(t *testing.T) {
	nodes := bootCluster(t, 3, 1, false) // fleet mode: independent ingest
	ctx := context.Background()
	const key = "fleet-tenant"

	// Each node ingests a disjoint third of one logical stream.
	for i, tn := range nodes {
		c := client.New(tn.url, tn.hs.Client())
		if _, err := c.CreateTenant(ctx, key, client.TenantSpec{Sketch: "countsketch"}); err != nil {
			t.Fatal(err)
		}
		var items []uint64
		for j := 0; j < 200; j++ {
			items = append(items, uint64(i*200+j)%31)
		}
		if err := c.Add(ctx, key, items...); err != nil {
			t.Fatal(err)
		}
	}

	// A single reference server ingests the union.
	ref := server.New(server.Config{Shards: 2, Eps: 0.25, Delta: 0.05, N: 1 << 20, Seed: 42, MaxKeys: 64})
	defer ref.Drain()
	rh := httptest.NewServer(ref.Handler())
	defer rh.Close()
	rc := client.New(rh.URL, rh.Client())
	if _, err := rc.CreateTenant(ctx, key, client.TenantSpec{Sketch: "countsketch"}); err != nil {
		t.Fatal(err)
	}
	var union []uint64
	for i := 0; i < 600; i++ {
		union = append(union, uint64(i)%31)
	}
	if err := rc.Add(ctx, key, union...); err != nil {
		t.Fatal(err)
	}
	want := mustEstimate(t, rc, key)

	body, _ := json.Marshal(server.QueryRequest{
		Key: key, Queries: []server.Query{{Kind: server.QueryEstimate}, {Kind: server.QueryTopK, K: 5}},
	})
	resp, err := nodes[1].hs.Client().Post(nodes[1].url+"/cluster/query?merge=all", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("merge-all query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merge-all query status %d", resp.StatusCode)
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if got := qr.Answers[0].Value; math.Abs(got-want) > 1e-9 {
		t.Fatalf("merge-all estimate %v, want union estimate %v", got, want)
	}
	if len(qr.Answers[1].Items) != 5 {
		t.Fatalf("merge-all topk returned %d items, want 5", len(qr.Answers[1].Items))
	}
}

// ---------------------------------------------------------------------------
// Drain

func TestDrainHandsOff(t *testing.T) {
	nodes := bootCluster(t, 3, 2, true)
	ctx := context.Background()
	const key = "drain-tenant"
	owner := byAddr(nodes, nodes[0].node.Owner(key))
	oc := client.New(owner.url, owner.hs.Client())
	if _, err := oc.CreateTenant(ctx, key, client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if err := oc.Add(ctx, key, 5, 5, 5, 5); err != nil {
		t.Fatal(err)
	}
	want := mustEstimate(t, oc, key)

	if n := owner.node.Drain(); n == 0 {
		t.Fatalf("drain shipped nothing")
	}
	newOwner := byAddr(nodes, owner.node.Owner(key))
	if newOwner == owner {
		t.Fatalf("draining node still owns %q", key)
	}
	if !slices.Contains(newOwner.srv.Keys(), key) {
		t.Fatalf("new owner %s does not hold %q after drain handoff", newOwner.url, key)
	}
	// Drain gossips through the probe exchange: every survivor re-routes.
	for _, tn := range nodes {
		if tn == owner {
			continue
		}
		if got := tn.node.Owner(key); got != newOwner.url {
			t.Fatalf("node %s still routes %q to %s, want %s", tn.url, key, got, newOwner.url)
		}
		c := client.New(tn.url, tn.hs.Client())
		if got := mustEstimate(t, c, key); got != want {
			t.Fatalf("post-drain estimate via %s = %v, want %v", tn.url, got, want)
		}
	}
}

// A node that drained, then restarted, must refute the stale draining
// gossip peers still hold. Its boot incarnation restarts at 1, and an
// equal-or-lower Seq announcement never outranks the stored
// (drainSeq, draining=true) entry — without the SWIM-style jump past
// the gossiped Seq, peers would exclude the node from placement forever
// while it considers itself alive.
func TestRestartRefutesStaleDrainGossip(t *testing.T) {
	nodes := bootCluster(t, 3, 2, true)
	victim := nodes[2]

	victim.node.Drain() // announces the draining incarnation to both peers
	drainSeq := victim.node.selfSeq.Load()
	for _, tn := range nodes[:2] {
		p := tn.node.peers[victim.url]
		if !p.draining.Load() || p.seq.Load() != drainSeq {
			t.Fatalf("peer %s did not learn the drain: seq=%d draining=%v",
				tn.url, p.seq.Load(), p.draining.Load())
		}
	}

	// "Restart": a fresh Node at the same address, incarnation back to 1,
	// serving on the same listener.
	srv2 := server.New(server.Config{Shards: 2, Eps: 0.25, Delta: 0.05, N: 1 << 20, Seed: 42, MaxKeys: 64})
	t.Cleanup(func() { srv2.Drain() })
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	n2, err := New(srv2, Config{Self: victim.url, Peers: urls, Replicas: 2, Forward: true, SuspectAfter: 2})
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	t.Cleanup(n2.Close)
	h := n2.Handler()
	victim.hs.Config.Handler.(*swapHandler).h.Store(&h)

	// First probe exchange: the announcement (1, not-draining) is too low
	// to outrank the stored drain, but the responses carry the stale
	// gossip about us — merging it must jump our incarnation past it.
	n2.probeAll()
	if got := n2.selfSeq.Load(); got <= drainSeq {
		t.Fatalf("restarted node did not refute stale drain gossip: seq=%d, want > %d", got, drainSeq)
	}
	// Second exchange announces the refutation: every peer clears the
	// flag and the node is placeable again.
	n2.probeAll()
	for _, tn := range nodes[:2] {
		p := tn.node.peers[victim.url]
		if p.draining.Load() {
			t.Fatalf("peer %s still believes %s is draining after refutation", tn.url, victim.url)
		}
		if p.seq.Load() <= drainSeq {
			t.Fatalf("peer %s holds seq %d for %s, want > %d", tn.url, p.seq.Load(), victim.url, drainSeq)
		}
	}
}

// ---------------------------------------------------------------------------
// Probe loop end to end (loops actually started)

func TestProbeDetectsDeathAndRecovery(t *testing.T) {
	nodes := bootCluster(t, 3, 2, true)
	for _, tn := range nodes {
		tn.node.cfg.ProbeInterval = 20 * time.Millisecond
		tn.node.cfg.ShipInterval = 50 * time.Millisecond
		tn.node.Start()
	}
	victim, observer := nodes[2], nodes[0]
	deadline := time.Now().Add(5 * time.Second)

	// A dead process neither receives nor sends: stop the victim's loops
	// before its listener. Left running, its prober keeps reaching the
	// observer, mergeRoutes revives any peer it hears from, and the
	// "dead" node flaps down and up there once a probe round.
	victim.node.Close()
	victim.hs.Close()
	for {
		if p := observer.node.peers[victim.url]; p.down.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("observer never marked %s down", victim.url)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Status endpoint reflects the view.
	resp, err := observer.hs.Client().Get(observer.url + "/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	downSeen := false
	for _, p := range st.Peers {
		if p.Addr == victim.url && p.Down {
			downSeen = true
		}
	}
	if !downSeen {
		t.Fatalf("status does not report %s down: %+v", victim.url, st)
	}
}

// Drain (an operator call on a handler goroutine) runs a probe round
// concurrently with the ticker-driven probe loop; under -race this
// exercises the shared detector state (fails counters, down flags).
func TestDrainConcurrentWithProbeLoop(t *testing.T) {
	nodes := bootCluster(t, 3, 2, true)
	for _, tn := range nodes {
		tn.node.cfg.ProbeInterval = 5 * time.Millisecond
		tn.node.cfg.ShipInterval = 20 * time.Millisecond
		tn.node.Start()
	}
	time.Sleep(25 * time.Millisecond) // let a few probe rounds run
	if nodes[1].node.Drain(); !nodes[1].node.Draining() {
		t.Fatalf("node did not enter draining state")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if p := nodes[0].node.peers[nodes[1].url]; p.draining.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never propagated to peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPlaceEndpoint(t *testing.T) {
	nodes := bootCluster(t, 3, 2, true)
	resp, err := nodes[0].hs.Client().Get(nodes[0].url + "/cluster/place?key=some-tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PlacementResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Order) != 3 || len(pr.Replicas) != 2 || pr.Owner != pr.Order[0] {
		t.Fatalf("bad placement response: %+v", pr)
	}
	if pr.Owner != nodes[1].node.Owner("some-tenant") {
		t.Fatalf("nodes disagree on owner")
	}
}
