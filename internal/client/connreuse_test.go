package client_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
)

// connCounter counts distinct TCP connections accepted by an httptest
// server via the ConnState hook.
type connCounter struct {
	mu    sync.Mutex
	conns map[string]struct{}
}

func newConnCounter() *connCounter {
	return &connCounter{conns: make(map[string]struct{})}
}

func (cc *connCounter) hook(c net.Conn, s http.ConnState) {
	if s == http.StateNew {
		cc.mu.Lock()
		cc.conns[c.RemoteAddr().String()] = struct{}{}
		cc.mu.Unlock()
	}
}

func (cc *connCounter) count() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.conns)
}

// TestErrorStormReusesConnection: a client riding out a sustained 4xx
// storm (here, the insertion-model negative-delta 400) must keep reusing
// its keep-alive connection. A response body left undrained on the error
// path would kill the connection after every failure and show up here as
// one TCP connection per request.
func TestErrorStormReusesConnection(t *testing.T) {
	for _, tc := range codecs {
		t.Run(tc.name, func(t *testing.T) {
			srv := server.New(server.Config{Shards: 1, Seed: 1})
			cc := newConnCounter()
			hs := httptest.NewUnstartedServer(srv.Handler())
			hs.Config.ConnState = cc.hook
			hs.Start()
			defer hs.Close()

			c := client.New(hs.URL, hs.Client(), client.WithCodec(tc.codec))
			ctx := context.Background()
			if _, err := c.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "countsketch"}); err != nil {
				t.Fatal(err)
			}
			if err := c.Add(ctx, "k", 1, 2, 3); err != nil {
				t.Fatal(err)
			}

			// Every one of these fails with 400: negative deltas on an
			// insertion-only tenant. The bodies must be drained for the
			// connection to survive.
			const storm = 50
			for i := 0; i < storm; i++ {
				err := c.Update(ctx, "k", []client.Update{{Item: 7, Delta: -1}})
				if client.StatusCode(err) != 400 {
					t.Fatalf("request %d: err = %v, want HTTP 400", i, err)
				}
			}
			// A success after the storm must still ride the same connection.
			if err := c.Update(ctx, "k", []client.Update{{Item: 7, Delta: 1}}); err != nil {
				t.Fatalf("update after storm: %v", err)
			}

			if got := cc.count(); got != 1 {
				t.Fatalf("error storm of %d requests used %d connections, want 1 (bodies not drained?)", storm, got)
			}
		})
	}
}
