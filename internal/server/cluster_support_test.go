package server_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
)

// bootMem starts an in-memory sketchd on a loopback listener.
func bootMem(t *testing.T, cfg server.Config) (*server.Server, *client.Client, *httptest.Server) {
	t.Helper()
	srv := server.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Drain)
	return srv, client.New(hs.URL, hs.Client()), hs
}

func memCfg() server.Config {
	return server.Config{Shards: 2, Eps: 0.25, Delta: 0.05, N: 1 << 20, Seed: 42, MaxKeys: 8}
}

func checkpointCount(t *testing.T, c *client.Client) int64 {
	t.Helper()
	h, _, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return h.Checkpoints
}

// shipmentSource boots a same-seed in-memory peer holding an f2 tenant "m"
// with a few items in it, and returns a function that ships it into dst.
func shipmentSource(t *testing.T, cfg server.Config, dst *server.Server) (ship func(), snapshot []byte) {
	t.Helper()
	ctx := context.Background()
	srcCfg := memCfg()
	srcCfg.Seed = cfg.Seed
	srcCfg.Shards = cfg.Shards
	src, cs, _ := bootMem(t, srcCfg)
	if _, err := cs.CreateTenant(ctx, "m", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if err := cs.Add(ctx, "m", 100, 101, 102); err != nil {
		t.Fatal(err)
	}
	snapshot, err := cs.Snapshot(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		t.Helper()
		sh, err := src.ShipTenant("m")
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.ApplyShipment("m", sh.Spec, sh.State, sh.Mass, sh.Deleted); err != nil {
			t.Fatal(err)
		}
	}, snapshot
}

// TestMergeDeferredDebounce is the regression test for the replication
// fsync stampede: a shipment merged into a replica defers its durability —
// ApplyShipment must NOT write a synchronous checkpoint, shipments coalesce
// into the CheckpointEvery cadence — while an operator /v1/merge stays
// checkpoint-before-200, whatever parameters ride along.
func TestMergeDeferredDebounce(t *testing.T) {
	ctx := context.Background()
	cfg := durableCfg(t.TempDir())
	cfg.CheckpointEvery = 1 << 20 // cadence far away: any checkpoint here is a sync one
	srv, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Drain)
	c := client.New(hs.URL, hs.Client())
	ship, snap := shipmentSource(t, cfg, srv)

	base := checkpointCount(t, c)
	for i := 0; i < 5; i++ {
		ship()
	}
	if got := checkpointCount(t, c); got != base {
		t.Errorf("5 shipments wrote %d checkpoints, want 0 (they must coalesce into the cadence)", got-base)
	}

	// The operator merge is durable: checkpoint before the 200.
	if err := c.Merge(ctx, "m", snap); err != nil {
		t.Fatal(err)
	}
	if got := checkpointCount(t, c); got != base+1 {
		t.Errorf("operator merge wrote %d checkpoints, want exactly 1", got-base)
	}

	// The retired ?durability= selector is an unknown parameter like any
	// other: ignored, and the merge checkpoints before its 200.
	resp, err := http.Post(hs.URL+"/v1/merge?key=m&durability=deferred",
		"application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("durability=deferred got HTTP %d, want 200 (the parameter is ignored)", resp.StatusCode)
	}
	if got := checkpointCount(t, c); got != base+2 {
		t.Errorf("merge with durability=deferred wrote %d checkpoints, want exactly 1 (every merge is synchronous)", got-base-1)
	}
}

// TestMergeDeferredCadenceCheckpoint: enough shipments must still reach
// durability through the cadence, so deferral is a debounce, not a
// durability hole that only a restart closes. The shipment that crosses the
// cadence checkpoints before ApplyShipment returns.
func TestMergeDeferredCadenceCheckpoint(t *testing.T) {
	cfg := durableCfg(t.TempDir())
	cfg.CheckpointEvery = 16 // shipment weight = 2: 8 shipments trip the cadence
	srv, c := bootDurable(t, cfg)
	ship, _ := shipmentSource(t, cfg, srv)

	base := checkpointCount(t, c)
	for i := 1; i <= 8; i++ {
		ship()
		if got, want := checkpointCount(t, c)-base, int64(i/8); got != want {
			t.Fatalf("after %d shipments: %d cadence checkpoints, want %d", i, got, want)
		}
	}
}

// TestHealthz covers the readiness surface: ok on a serving instance,
// durability counters on a durable one, 503 once draining.
func TestHealthz(t *testing.T) {
	ctx := context.Background()
	srv, c, _ := bootMem(t, memCfg())
	h, ready, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ready || h.Status != "ok" || h.Durable || h.Draining || h.Recovering {
		t.Errorf("fresh in-memory healthz = %+v ready=%v", h, ready)
	}

	dsrv, dc := bootDurable(t, durableCfg(t.TempDir()))
	if _, err := dc.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	dh, ready, err := dc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ready || !dh.Durable || dh.Recovery == nil || dh.Keys != 1 {
		t.Errorf("durable healthz = %+v ready=%v", dh, ready)
	}
	if err := dsrv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	srv.Drain()
	h, ready, err = c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ready || h.Status != "draining" || !h.Draining {
		t.Errorf("draining healthz = %+v ready=%v", h, ready)
	}
}

// TestForwarderRedirect pins the forwarding contract: with a placement
// hook installed, every tenant-scoped endpoint answers 307 to the
// owner's base URL with the request URI preserved, while server-wide
// endpoints and keys the hook declines stay local.
func TestForwarderRedirect(t *testing.T) {
	srv := server.New(memCfg())
	t.Cleanup(srv.Drain)
	srv.SetForwarder(func(key string) (string, bool) {
		if key == "local" {
			return "", false
		}
		return "http://owner.example:9", true
	})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	hc := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}

	wantRedirect := func(method, path string, body string, contentType string) {
		t.Helper()
		var rd *bytes.Reader
		if body != "" {
			rd = bytes.NewReader([]byte(body))
		} else {
			rd = bytes.NewReader(nil)
		}
		req, err := http.NewRequest(method, hs.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Errorf("%s %s: got HTTP %d, want 307", method, path, resp.StatusCode)
			return
		}
		want := "http://owner.example:9" + path
		if got := resp.Header.Get("Location"); got != want {
			t.Errorf("%s %s: Location %q, want %q", method, path, got, want)
		}
	}

	wantRedirect(http.MethodPost, "/v1/update?key=remote", `{"updates":[{"item":1,"delta":1}]}`, "application/json")
	wantRedirect(http.MethodPost, "/v2/update?key=remote", `{"updates":[{"item":1,"delta":1}]}`, "application/json")
	wantRedirect(http.MethodGet, "/v1/estimate?key=remote", "", "")
	wantRedirect(http.MethodGet, "/v1/snapshot?key=remote", "", "")
	wantRedirect(http.MethodPost, "/v1/merge?key=remote", "x", "application/octet-stream")
	wantRedirect(http.MethodDelete, "/v1/keys?key=remote", "", "")
	wantRedirect(http.MethodPost, "/v2/keys", `{"key":"remote","spec":{"sketch":"f2"}}`, "application/json")
	wantRedirect(http.MethodPost, "/v2/query", `{"key":"remote","queries":[{"kind":"estimate"}]}`, "application/json")

	// Server-wide endpoints are never forwarded.
	for _, path := range []string{"/v1/stats", "/v1/healthz"} {
		resp, err := hc.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: got HTTP %d, want 200 (must not forward)", path, resp.StatusCode)
		}
	}

	// A declined key stays local: unknown key is a local 404.
	resp, err := hc.Get(hs.URL + "/v1/estimate?key=local")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/estimate?key=local: got HTTP %d, want local 404", resp.StatusCode)
	}

	// A method the endpoint does not take is a 405 whose Allow header
	// names every method it does take.
	resp, err = hc.Get(hs.URL + "/v1/keys?key=local")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Allow"); resp.StatusCode != http.StatusMethodNotAllowed || got != "DELETE" {
		t.Errorf("GET /v1/keys: got HTTP %d with Allow %q, want 405 with Allow \"DELETE\"", resp.StatusCode, got)
	}
}

// TestForwardingFollowedByClient: a client pointed at a non-owner node
// transparently lands its writes and reads on the owner — the Go client
// re-sends request bodies across the 307.
func TestForwardingFollowedByClient(t *testing.T) {
	ctx := context.Background()
	cfg := memCfg()
	ownerSrv, ownerClient, ownerHS := bootMem(t, cfg)
	proxySrv, proxyClient, _ := bootMem(t, cfg)
	proxySrv.SetForwarder(func(key string) (string, bool) { return ownerHS.URL, true })

	if _, err := proxyClient.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if err := proxyClient.Add(ctx, "k", 1, 2, 3, 4); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(proxySrv.Keys(), "k") {
		t.Error("forwarding node materialized the tenant locally")
	}
	if !slices.Contains(ownerSrv.Keys(), "k") {
		t.Fatal("owner never saw the forwarded create")
	}
	got, err := proxyClient.Estimate(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ownerClient.Estimate(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got != want || want == 0 {
		t.Errorf("forwarded estimate %v, owner estimate %v", got, want)
	}
}

// TestShipTenantApplyShipment: a shipment rebuilt on a same-seed peer
// reproduces the owner's estimate exactly, and re-shipping replaces the
// copy instead of double counting it.
func TestShipTenantApplyShipment(t *testing.T) {
	ctx := context.Background()
	cfg := memCfg()
	ownerSrv, ownerClient, _ := bootMem(t, cfg)
	replicaSrv, replicaClient, _ := bootMem(t, cfg)

	if _, err := ownerClient.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if err := ownerClient.Add(ctx, "k", 1, 2, 3, 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	ship := func() {
		t.Helper()
		sh, err := ownerSrv.ShipTenant("k")
		if err != nil {
			t.Fatal(err)
		}
		if len(sh.State) == 0 {
			t.Fatalf("f2 shipment = %+v, want mergeable state", sh)
		}
		if err := replicaSrv.ApplyShipment("k", sh.Spec, sh.State, sh.Mass, sh.Deleted); err != nil {
			t.Fatal(err)
		}
	}
	ship()
	want, err := ownerClient.Estimate(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	got, err := replicaClient.Estimate(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("replica estimate %v, owner %v (same seed: must be exact)", got, want)
	}

	// Re-ship after more ingest: replace, not additive fold.
	if err := ownerClient.Add(ctx, "k", 9, 9, 9); err != nil {
		t.Fatal(err)
	}
	ship()
	want, err = ownerClient.Estimate(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	got, err = replicaClient.Estimate(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("re-shipped replica estimate %v, owner %v (ship must replace, not double)", got, want)
	}

	// Mass telemetry travels with the shipment.
	ks, err := replicaClient.KeyStats(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if ks.Mass != 9 {
		t.Errorf("replica mass %d, want 9", ks.Mass)
	}

	// State that does not fit the shipped declaration is refused, and the
	// error names the shipment, not a checkpoint.
	wide := cfg
	wide.Shards = 3
	wideSrv, wideClient, _ := bootMem(t, wide)
	if _, err := wideClient.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	narrow, err := ownerSrv.ShipTenant("k")
	if err != nil {
		t.Fatal(err)
	}
	wideShip, err := wideSrv.ShipTenant("k")
	if err != nil {
		t.Fatal(err)
	}
	err = replicaSrv.ApplyShipment("k", narrow.Spec, wideShip.State, 0, 0)
	if want := `shipment for "k": conflict: snapshot has 3 shards, tenant runs 2`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("mis-sharded shipment: err = %v, want it to say %q", err, want)
	}
	if got, err := replicaClient.Estimate(ctx, "k"); err != nil || got != want {
		t.Errorf("refused shipment disturbed the replica: estimate %v err %v, want %v", got, err, want)
	}

	// Non-mergeable tenants ship as spec-only declarations.
	if _, err := ownerClient.CreateTenant(ctx, "rob", client.TenantSpec{Sketch: "f2", Policy: "switching"}); err != nil {
		t.Fatal(err)
	}
	sh, err := ownerSrv.ShipTenant("rob")
	if err != nil {
		t.Fatal(err)
	}
	if sh.State != nil {
		t.Fatalf("robust shipment = %+v, want spec-only", sh)
	}
	if err := replicaSrv.ApplyShipment("rob", sh.Spec, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(replicaSrv.Keys(), "rob") {
		t.Error("spec-only shipment did not declare the tenant on the replica")
	}
}

// TestAnswerMerged: cross-node merge of disjoint sub-streams equals one
// server that ingested everything (same-seed determinism makes the
// comparison exact); a seed mismatch is refused as a conflict.
func TestAnswerMerged(t *testing.T) {
	ctx := context.Background()
	cfg := memCfg()
	aSrv, aClient, _ := bootMem(t, cfg)
	bSrv, bClient, _ := bootMem(t, cfg)
	allSrv, allClient, _ := bootMem(t, cfg)
	_ = allSrv

	for _, c := range []*client.Client{aClient, bClient, allClient} {
		if _, err := c.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "f2"}); err != nil {
			t.Fatal(err)
		}
	}
	half1 := []uint64{1, 2, 3, 1, 2, 1}
	half2 := []uint64{50, 60, 50, 70}
	if err := aClient.Add(ctx, "k", half1...); err != nil {
		t.Fatal(err)
	}
	if err := bClient.Add(ctx, "k", half2...); err != nil {
		t.Fatal(err)
	}
	if err := allClient.Add(ctx, "k", append(append([]uint64{}, half1...), half2...)...); err != nil {
		t.Fatal(err)
	}

	shA, err := aSrv.ShipTenant("k")
	if err != nil {
		t.Fatal(err)
	}
	shB, err := bSrv.ShipTenant("k")
	if err != nil {
		t.Fatal(err)
	}
	req := &server.QueryRequest{Key: "k", Queries: []server.Query{{Kind: server.QueryEstimate}}}
	resp, status, err := aSrv.AnswerMerged(req, [][]byte{shA.State, shB.State})
	if err != nil {
		t.Fatalf("AnswerMerged: HTTP %d: %v", status, err)
	}
	want, err := allClient.Estimate(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Answers[0].Value; got != want {
		t.Errorf("merged estimate %v, union server %v (same seed: must be exact)", got, want)
	}

	// A foreign-seed envelope must be refused, not silently folded.
	foreignCfg := cfg
	foreignCfg.Seed = 777
	fSrv, fClient, _ := bootMem(t, foreignCfg)
	if _, err := fClient.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if err := fClient.Add(ctx, "k", 5); err != nil {
		t.Fatal(err)
	}
	shF, err := fSrv.ShipTenant("k")
	if err != nil {
		t.Fatal(err)
	}
	if _, status, err := aSrv.AnswerMerged(req, [][]byte{shA.State, shF.State}); err == nil || status != http.StatusConflict ||
		!strings.HasPrefix(err.Error(), "envelope 1: conflict: ") {
		t.Errorf("foreign-seed merge: status %d err %v, want 409 naming envelope 1", status, err)
	}

	// So must one of another geometry; the error names the envelope.
	wide := cfg
	wide.Shards = 3
	wSrv, wClient, _ := bootMem(t, wide)
	if _, err := wClient.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	shW, err := wSrv.ShipTenant("k")
	if err != nil {
		t.Fatal(err)
	}
	_, status, err = aSrv.AnswerMerged(req, [][]byte{shW.State})
	if want := "envelope 0: conflict: snapshot has 3 shards, tenant runs 2"; err == nil || status != http.StatusConflict || !strings.Contains(err.Error(), want) {
		t.Errorf("mis-sharded envelope: status %d err %v, want 409 saying %q", status, err, want)
	}
}
