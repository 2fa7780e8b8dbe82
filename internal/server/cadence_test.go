package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/waltest"
)

// TestCheckpointNeverOutlivesItsKey: with a checkpoint due after every
// update, an Update racing the write that unmaps its tenant — a DELETE, or a
// shipment of another declaration — either checkpoints before the unmap or
// is refused. So no checkpoint carries the unmapped tenant past the records
// that unmapped it, and recovery never brings back what the key no longer
// holds: a deleted key stays deleted, a key re-created as kmv recovers as
// that kmv, a shipped key as the shipped declaration.
func TestCheckpointNeverOutlivesItsKey(t *testing.T) {
	// batch is an update body of n distinct items from first on.
	batch := func(first, n int) string {
		var b strings.Builder
		b.WriteString(`{"updates":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"item":%d,"delta":1}`, first+i)
		}
		b.WriteString(`]}`)
		return b.String()
	}
	// The racing update is large, so the tenant it lands on has pending work
	// to flush and journal while the unmap comes in.
	racing := batch(0, 1000)
	post := func(t *testing.T, h http.Handler, url, body string) {
		t.Helper()
		if code := serve(h, http.MethodPost, url, body); code != http.StatusOK {
			t.Fatalf("POST %s %s: HTTP %d", url, body, code)
		}
	}
	del := func(t *testing.T, srv *Server, key string) {
		if code := serve(srv.Handler(), http.MethodDelete, "/v1/keys?key="+key, ""); code != http.StatusOK {
			t.Fatalf("DELETE %s: HTTP %d", key, code)
		}
	}
	// held names what key maps to: "" when nothing, the sketch otherwise,
	// with the estimate for a kmv tenant.
	held := func(srv *Server, key string) string {
		switch tn := srv.lookup(key); {
		case tn == nil:
			return ""
		case tn.spec.Name == "kmv":
			return fmt.Sprint("kmv estimating ", tn.eng.Estimate())
		default:
			return tn.spec.Name
		}
	}
	for _, a := range []struct {
		name   string
		rounds int
		clean  bool // Shutdown before the reopen, instead of a crash
		// unmap runs while one Update races it on key's f2 tenant.
		unmap func(t *testing.T, srv *Server, key string)
	}{
		{name: "delete/crash", rounds: 400, unmap: del},
		{name: "delete/shutdown", rounds: 400, clean: true, unmap: del},
		{name: "delete then re-create as kmv/crash", rounds: 600, unmap: func(t *testing.T, srv *Server, key string) {
			del(t, srv, key)
			h := srv.Handler()
			post(t, h, "/v2/keys", `{"key":"`+key+`","spec":{"sketch":"kmv"}}`)
			post(t, h, "/v1/update?key="+key, batch(1<<20, 10))
		}},
		{name: "ship kmv/crash", rounds: 600, unmap: func(t *testing.T, srv *Server, key string) {
			_, ts, err := resolve(TenantSpec{Sketch: "kmv"}, srv.cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := json.Marshal(ts)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.ApplyShipment(key, spec, nil, 0, 0); err != nil {
				t.Fatalf("shipment for %s: %v", key, err)
			}
		}},
	} {
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			rounds := a.rounds
			if testing.Short() {
				rounds /= 10
			}
			cfg := Config{Shards: 1, Seed: 1, MaxKeys: rounds + 2, DataDir: t.TempDir(), Fsync: "none", CheckpointEvery: 1}
			srv, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := srv.Handler()
			// How long the racing update takes here, unraced, so the rounds
			// can spread the unmap over its whole lifetime.
			post(t, h, "/v2/keys", `{"key":"solo","spec":{"sketch":"f2"}}`)
			solo := time.Now()
			post(t, h, "/v1/update?key=solo", racing)
			life := time.Since(solo)
			want := make(map[string]string, rounds)
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("k%d", i)
				post(t, h, "/v2/keys", `{"key":"`+key+`","spec":{"sketch":"f2"}}`)
				var racer sync.WaitGroup
				racer.Add(1)
				started := make(chan struct{})
				go func() {
					defer racer.Done()
					close(started)
					// 200, or 410/404 once unmapped, or lands on the kmv.
					serve(h, http.MethodPost, "/v1/update?key="+key, racing)
				}()
				// Some rounds unmap before the update takes the lock, some
				// while it holds it, some after its ack.
				<-started
				for spin := time.Now(); time.Since(spin) < life*time.Duration(i%25)/20; {
				}
				a.unmap(t, srv, key)
				racer.Wait()
				want[key] = held(srv, key)
			}
			if a.clean {
				if err := srv.Shutdown(); err != nil {
					t.Fatal(err)
				}
			} else {
				srv.Drain() // a crash: no final checkpoints
				cfg.DataDir = waltest.Crash(t, cfg.DataDir)
			}

			srv2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.Shutdown()
			wrong := 0
			for key, w := range want {
				if got := held(srv2, key); got != w {
					if wrong++; wrong <= 3 {
						t.Errorf("%s recovered as %q, want %q", key, got, w)
					}
				}
			}
			if wrong > 0 {
				t.Errorf("%d of %d keys recovered what an unmap had replaced", wrong, rounds)
			}
		})
	}
}
