package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
)

// One in-process cluster member exercises every subcommand end to end.
func TestSketchctlCommands(t *testing.T) {
	srv := server.New(server.Config{Shards: 2, Eps: 0.25, Delta: 0.05, N: 1 << 20, Seed: 7, MaxKeys: 8})
	defer srv.Drain()
	hs := httptest.NewUnstartedServer(nil)
	hs.Start()
	node, err := cluster.New(srv, cluster.Config{Self: hs.URL, Peers: []string{hs.URL}, Forward: true})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	hs.Config.Handler = node.Handler()

	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "ops-tenant", client.TenantSpec{Sketch: "countsketch"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(ctx, "ops-tenant", 1, 1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "bits-tenant", client.TenantSpec{Sketch: "cc"}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		args []string
		want string
	}{
		{[]string{"status"}, "self"},
		{[]string{"place", "ops-tenant"}, "owner"},
		{[]string{"query", "ops-tenant", "estimate"}, "(±0.25 relative)"},
		{[]string{"query", "bits-tenant", "estimate"}, "(±0.25 bits, additive)"},
		{[]string{"query", "ops-tenant", "point", "1"}, "point"},
		{[]string{"query", "-merge-all", "ops-tenant", "topk", "2"}, "top 1"},
		{[]string{"rebalance"}, "shipped"},
		{[]string{"health"}, "status    ok"},
		{[]string{"drain"}, "draining  true"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		if err := run(append([]string{"-addr", hs.URL}, tc.args...), &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Fatalf("%v output %q does not contain %q", tc.args, out.String(), tc.want)
		}
	}

	var out bytes.Buffer
	if err := run([]string{"-addr", hs.URL, "bogus"}, &out); err == nil {
		t.Fatalf("bogus command did not error")
	}
	if err := run([]string{"-addr", hs.URL, "query", "ops-tenant", "nope"}, &out); err == nil {
		t.Fatalf("bad query kind did not error")
	}
}
