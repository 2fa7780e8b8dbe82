package server_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
)

// TestInstallPathsAgree: a tenant reaches a second server three ways —
// checkpoint + Open, ShipTenant → ApplyShipment, /v1/snapshot → /v1/merge
// into an empty key — and all three copies must be the same tenant:
// byte-identical /v1/snapshot bodies, byte-identical /v2/query answers,
// and the same mass and deleted mass where the path carries stream (a
// merge carries state alone, so its copy's ledger reads zero). A robust
// tenant crosses as a declaration and is rebuilt by replaying the stream,
// and it is the same tenant whether or not its source was read between
// batches: a read decides when the engine works, never what it applies.
func TestInstallPathsAgree(t *testing.T) {
	ctx := context.Background()
	serve := func(srv *server.Server) (*client.Client, string) {
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		t.Cleanup(srv.Drain)
		return client.New(hs.URL, hs.Client()), hs.URL
	}
	httpBody := func(method, url string, body []byte) []byte {
		t.Helper()
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, data)
		}
		return data
	}
	query := func(base, key string, points bool) []byte {
		body := `{"key":"` + key + `","queries":[{"kind":"estimate"}]}`
		if points {
			body = `{"key":"` + key + `","queries":[{"kind":"estimate"},{"kind":"point","item":3},{"kind":"point","item":4099},{"kind":"topk","k":8}]}`
		}
		return httpBody(http.MethodPost, base+"/v2/query", []byte(body))
	}

	rng := rand.New(rand.NewSource(20260928))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<16)
	stream := make([]client.Update, 10000)
	for i := range stream {
		stream[i] = client.Update{Item: zipf.Uint64(), Delta: 1}
	}
	feedReading := func(c *client.Client, key string, read bool) {
		t.Helper()
		for i := 0; i < len(stream); i += 500 {
			if err := c.Update(ctx, key, stream[i:i+500]); err != nil {
				t.Fatalf("update %s: %v", key, err)
			}
			if !read {
				continue
			}
			if _, err := c.Estimate(ctx, key); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed := func(c *client.Client, key string) { feedReading(c, key, false) }

	cfg := durableCfg(t.TempDir())
	src, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcClient, srcURL := serve(src)

	inMem := cfg
	inMem.DataDir = ""
	// A shipment carries the resolved seed, so its receiver's root seed is
	// free to differ; a /v1/merge body carries none, so that one's may not.
	shipCfg := inMem
	shipCfg.Seed = 7
	shipSrv := server.New(shipCfg)
	shipClient, shipURL := serve(shipSrv)
	mergeClient, mergeURL := serve(server.New(inMem))

	sketches := []string{"kmv", "f2", "countsketch", "cc"}
	type reading struct {
		snapshot, answer []byte
		mass, deleted    int64
	}
	read := func(c *client.Client, base, key string) reading {
		t.Helper()
		snap, err := c.Snapshot(ctx, key)
		if err != nil {
			t.Fatalf("snapshot %s: %v", key, err)
		}
		ks, err := c.KeyStats(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		return reading{snap, query(base, key, key == "countsketch"), ks.Mass, ks.DeletedMass}
	}

	want := make(map[string]reading)
	for _, name := range sketches {
		if _, err := srcClient.CreateTenant(ctx, name, client.TenantSpec{Sketch: name}); err != nil {
			t.Fatal(err)
		}
		feed(srcClient, name)
		want[name] = read(srcClient, srcURL, name)
		if want[name].mass != int64(len(stream)) {
			t.Fatalf("%s: source mass %d, want %d", name, want[name].mass, len(stream))
		}

		sh, err := src.ShipTenant(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := shipSrv.ApplyShipment(name, sh.Spec, sh.State, sh.Mass, sh.Deleted); err != nil {
			t.Fatalf("ApplyShipment %s: %v", name, err)
		}
		if _, err := mergeClient.CreateTenant(ctx, name, client.TenantSpec{Sketch: name}); err != nil {
			t.Fatal(err)
		}
		if err := mergeClient.Merge(ctx, name, want[name].snapshot); err != nil {
			t.Fatalf("merge %s: %v", name, err)
		}
	}

	// The robust tenants: shipped as a declaration, then fed the stream on
	// both sides; the source of "rob-read" is read after every batch, its
	// shipped copy never.
	robustKeys := []string{"rob", "rob-read"}
	for _, key := range robustKeys {
		if _, err := srcClient.CreateTenant(ctx, key, client.TenantSpec{Sketch: "f2", Policy: "switching"}); err != nil {
			t.Fatal(err)
		}
		sh, err := src.ShipTenant(key)
		if err != nil {
			t.Fatal(err)
		}
		if sh.State != nil {
			t.Fatalf("robust shipment carries %d bytes of state, want a declaration", len(sh.State))
		}
		if err := shipSrv.ApplyShipment(key, sh.Spec, sh.State, sh.Mass, sh.Deleted); err != nil {
			t.Fatal(err)
		}
		feedReading(srcClient, key, key == "rob-read")
		feed(shipClient, key)
	}
	robust := func(c *client.Client, key string) (float64, int) {
		t.Helper()
		est, err := c.Estimate(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := c.KeyStats(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if ks.Robustness == nil {
			t.Fatal("robust tenant reports no robustness state")
		}
		return est, ks.Robustness.Switches
	}
	type robustReading struct {
		est      float64
		switches int
	}
	wantRobust := make(map[string]robustReading)
	for _, key := range robustKeys {
		est, switches := robust(srcClient, key)
		if switches == 0 {
			t.Fatalf("%s: the stream never made the robust tenant switch; the comparison below would be vacuous", key)
		}
		wantRobust[key] = robustReading{est, switches}
	}

	// Checkpoint + Open: a clean shutdown checkpoints every mergeable
	// tenant, and a second server opened on the directory restores them.
	if err := src.Shutdown(); err != nil {
		t.Fatal(err)
	}
	reopened, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ckptClient, ckptURL := serve(reopened)
	if got, want := reopened.Recovery().ReplayedUpdates, len(robustKeys)*len(stream); got != want {
		t.Errorf("reopen replayed %d updates, want %d (only the robust tenants replay; the static ones restore from checkpoints)", got, want)
	}

	for _, name := range sketches {
		w := want[name]
		// A /v1/merge body carries state, not stream: the merged copy's
		// ledger stays at zero for every sketch, cc's F1 counter included.
		for _, path := range []struct {
			name          string
			c             *client.Client
			base          string
			mass, deleted int64
		}{
			{"checkpoint+open", ckptClient, ckptURL, w.mass, w.deleted},
			{"shipment", shipClient, shipURL, w.mass, w.deleted},
			{"snapshot+merge", mergeClient, mergeURL, 0, 0},
		} {
			got := read(path.c, path.base, name)
			if !bytes.Equal(got.snapshot, w.snapshot) {
				t.Errorf("%s via %s: /v1/snapshot differs from the source (%d vs %d bytes)", name, path.name, len(got.snapshot), len(w.snapshot))
			}
			if !bytes.Equal(got.answer, w.answer) {
				t.Errorf("%s via %s: /v2/query answered\n%s, the source\n%s", name, path.name, got.answer, w.answer)
			}
			if got.mass != path.mass || got.deleted != path.deleted {
				t.Errorf("%s via %s: mass %d deleted %d, want %d and %d", name, path.name, got.mass, got.deleted, path.mass, path.deleted)
			}
		}
	}
	for _, path := range []struct {
		name string
		c    *client.Client
	}{{"checkpoint+open", ckptClient}, {"shipment", shipClient}} {
		for _, key := range robustKeys {
			w := wantRobust[key]
			if est, switches := robust(path.c, key); est != w.est || switches != w.switches {
				t.Errorf("f2+switching %s via %s: (estimate, switches) = (%v, %d), the source (%v, %d)", key, path.name, est, switches, w.est, w.switches)
			}
		}
	}
}
