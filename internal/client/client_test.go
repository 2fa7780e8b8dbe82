package client_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
)

func bootClient(t *testing.T, cfg server.Config) *client.Client {
	t.Helper()
	srv := server.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Drain)
	return client.New(hs.URL, hs.Client())
}

func TestClientRoundTrip(t *testing.T) {
	c := bootClient(t, server.Config{Shards: 1, Seed: 1})
	ctx := context.Background()

	if _, err := c.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "kmv"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(ctx, "k", 1, 2, 3, 2, 1); err != nil {
		t.Fatal(err)
	}
	got, err := c.Estimate(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got < 1 || got > 6 {
		t.Errorf("F0 estimate of 3 distinct items = %v", got)
	}
}

func TestClientErrorMapping(t *testing.T) {
	c := bootClient(t, server.Config{Shards: 1, Seed: 1})
	ctx := context.Background()

	_, err := c.Estimate(ctx, "nope")
	if client.StatusCode(err) != http.StatusNotFound {
		t.Errorf("estimate of unknown key: err = %v, want HTTP 404 mapping", err)
	}
	if client.StatusCode(nil) != 0 {
		t.Error("StatusCode(nil) != 0")
	}
	if _, err := c.CreateTenant(ctx, "", client.TenantSpec{Sketch: "kmv"}); err == nil {
		t.Error("empty key accepted")
	}
}

func TestClientNonJSONError(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text failure", http.StatusBadGateway)
	}))
	t.Cleanup(hs.Close)
	c := client.New(hs.URL, hs.Client())
	_, err := c.Estimate(context.Background(), "k")
	if client.StatusCode(err) != http.StatusBadGateway {
		t.Errorf("err = %v, want HTTP 502 mapping", err)
	}
}

func TestClientContextCancel(t *testing.T) {
	c := bootClient(t, server.Config{Shards: 1, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Add(ctx, "k", 1); err == nil {
		t.Error("canceled context accepted")
	}
}
