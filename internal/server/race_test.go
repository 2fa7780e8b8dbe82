package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestConcurrentIngestAndDrain: producers race a Drain that lands while
// their batches are being applied. Every request resolves to one of two
// outcomes — 200 with the whole batch in the state, or a 503 whose body is
// {"error": …} and nothing else, with none of the batch applied — so once
// the drain's final publish is in, each tenant's mass is exactly the
// updates its 200s carried. The durable arm recovers that same mass after
// Shutdown. Run under -race this also exercises the engine handoff and the
// tenant map locking.
func TestConcurrentIngestAndDrain(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := map[bool]string{false: "memory", true: "durable"}[durable]
		t.Run(name, func(t *testing.T) {
			cfg := server.Config{Shards: 2, Seed: 1, MaxKeys: 16}
			if durable {
				cfg.DataDir, cfg.Fsync = t.TempDir(), "batch"
			}
			acked := ingestThroughDrain(t, cfg)
			if !durable {
				return
			}
			srv, err := server.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Drain()
			hs := httptest.NewServer(srv.Handler())
			defer hs.Close()
			for key, want := range acked {
				if got := tenantMass(t, client.New(hs.URL, hs.Client()), key); got != want {
					t.Errorf("%s: recovered mass %d, want the %d updates acknowledged before the drain", key, got, want)
				}
			}
		})
	}
}

// ingestThroughDrain runs the producers against a server opened from cfg,
// drains it mid-batch, checks each tenant's mass against its acknowledged
// updates and shuts the server down. It returns the acknowledged count per
// key.
func ingestThroughDrain(t *testing.T, cfg server.Config) map[string]int64 {
	srv, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()
	keys := []string{"even", "odd"}
	for _, key := range keys {
		if _, err := c.CreateTenant(ctx, key, client.TenantSpec{Sketch: "kmv"}); err != nil {
			t.Fatal(err)
		}
	}

	const producers, batches, size = 8, 50, 4000
	var acked [2]atomic.Int64
	var batchesAcked atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			k := p % 2
			for i := 0; i < batches; i++ {
				us := make([]wire.Update, size)
				for j := range us {
					us[j] = wire.Update{Item: uint64(p)<<40 | uint64(i)<<20 | uint64(j), Delta: 1}
				}
				// Half the producers speak frames, half JSON: one outcome per
				// batch under either codec.
				path, ct, body := "/v2/update", wire.ContentType, wire.AppendUpdates(nil, us)
				if p%4 >= 2 {
					req := server.UpdateRequest{Updates: make([]server.UpdateItem, size)}
					for j, u := range us {
						req.Updates[j] = server.UpdateItem{Item: u.Item, Delta: u.Delta}
					}
					path, ct = "/v1/update", "application/json"
					body, _ = json.Marshal(req)
				}
				resp, err := hs.Client().Post(hs.URL+path+"?key="+keys[k], ct, bytes.NewReader(body))
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				var reply map[string]any
				derr := json.NewDecoder(resp.Body).Decode(&reply)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					acked[k].Add(size)
					batchesAcked.Add(1)
				case http.StatusServiceUnavailable:
					if msg, ok := reply["error"].(string); derr != nil || !ok || msg == "" || len(reply) != 1 {
						t.Errorf("producer %d: 503 body %v (%v), want {\"error\": …} and nothing else", p, reply, derr)
					}
					return // server is draining; stop producing
				default:
					t.Errorf("producer %d: HTTP %d %v", p, resp.StatusCode, reply)
					return
				}
			}
		}(p)
	}
	// Drain once the producers are in steady state, so it lands inside
	// batches rather than ahead of them.
	for deadline := time.Now().Add(10 * time.Second); batchesAcked.Load() < producers && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	srv.Drain()
	wg.Wait()

	// Post-drain reads still serve, and the drain's final publish makes
	// Mass exact.
	out := make(map[string]int64)
	for k, key := range keys {
		if _, err := c.Estimate(ctx, key); err != nil {
			t.Errorf("estimate(%s) after drain: %v", key, err)
		}
		out[key] = acked[k].Load()
		if got := tenantMass(t, c, key); got != out[key] {
			t.Errorf("%s: mass %d after the drain, want the %d updates of its 200-answered batches", key, got, out[key])
		}
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	return out
}

func tenantMass(t *testing.T, c *client.Client, key string) int64 {
	t.Helper()
	ks, err := c.KeyStats(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	return ks.Mass
}
