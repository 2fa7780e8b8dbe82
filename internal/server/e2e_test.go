package server_test

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/stream"
)

// boot starts a sketchd instance on a loopback listener.
func boot(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Drain)
	return srv, client.New(hs.URL, hs.Client())
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestEndToEnd is the acceptance test: boot sketchd on loopback, ingest a
// stream through the client against two tenant keys — a robust F2 and a
// heavy hitters keyspace — verify /v1/estimate within ε of ground truth,
// and verify that /v1/snapshot → /v1/merge into a second (same-seed)
// server reproduces the estimate.
func TestEndToEnd(t *testing.T) {
	const eps = 0.25
	cfg := server.Config{Shards: 2, Eps: eps, Delta: 0.05, N: 1 << 20, Seed: 42, MaxKeys: 8}
	_, c := boot(t, cfg)
	ctx := context.Background()

	if _, err := c.CreateTenant(ctx, "norms", client.TenantSpec{Sketch: "f2", Policy: "ring"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "hot-items", client.TenantSpec{Sketch: "countsketch"}); err != nil {
		t.Fatal(err)
	}

	// One Zipf stream into both keyspaces, batched through the client.
	gen := stream.NewZipf(1<<12, 30000, 1.2, 7)
	truth := stream.NewFreq()
	batch := make([]client.Update, 0, 512)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		for _, key := range []string{"norms", "hot-items"} {
			if err := c.Update(ctx, key, batch); err != nil {
				t.Fatal(err)
			}
		}
		batch = batch[:0]
	}
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		truth.Apply(u)
		batch = append(batch, client.Update{Item: u.Item, Delta: u.Delta})
		if len(batch) == cap(batch) {
			flush()
		}
	}
	flush()

	// Robust F2 keyspace estimates the L2 norm.
	got, err := c.Estimate(ctx, "norms")
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(got, truth.L2()); re > eps {
		t.Errorf("f2+ring estimate %v vs truth %v: rel err %.3f > ε=%.2f", got, truth.L2(), re, eps)
	}

	// The heavy hitters keyspace estimates the F2 moment.
	gotHH, err := c.Estimate(ctx, "hot-items")
	if err != nil {
		t.Fatal(err)
	}
	wantF2 := truth.Fp(2)
	if re := relErr(gotHH, wantF2); re > eps {
		t.Errorf("countsketch F2 estimate %v vs truth %v: rel err %.3f > ε=%.2f", gotHH, wantF2, re, eps)
	}

	// Snapshot → merge into a second server with the same seed reproduces
	// the estimate exactly (the merged sketch state is identical).
	snap, err := c.Snapshot(ctx, "hot-items")
	if err != nil {
		t.Fatal(err)
	}
	_, c2 := boot(t, cfg)
	if _, err := c2.CreateTenant(ctx, "hot-items", client.TenantSpec{Sketch: "countsketch"}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Merge(ctx, "hot-items", snap); err != nil {
		t.Fatal(err)
	}
	got2, err := c2.Estimate(ctx, "hot-items")
	if err != nil {
		t.Fatal(err)
	}
	if got2 != gotHH {
		t.Errorf("merged server estimate %v != source estimate %v", got2, gotHH)
	}

	// Robust keyspaces refuse snapshot with 501.
	if _, err := c.Snapshot(ctx, "norms"); client.StatusCode(err) != 501 {
		t.Errorf("snapshot of robust keyspace: err = %v, want HTTP 501", err)
	}

	// A server with different randomness refuses the merge with 409.
	badCfg := cfg
	badCfg.Seed = 43
	_, c3 := boot(t, badCfg)
	if _, err := c3.CreateTenant(ctx, "hot-items", client.TenantSpec{Sketch: "countsketch"}); err != nil {
		t.Fatal(err)
	}
	if err := c3.Merge(ctx, "hot-items", snap); client.StatusCode(err) != 409 {
		t.Errorf("merge into different-seed server: err = %v, want HTTP 409", err)
	}
}

// TestMergeAggregatesDisjointStreams: two same-seed servers ingest halves
// of a stream; merging both snapshots into a third reproduces the
// whole-stream estimate — the distributed aggregation workflow.
func TestMergeAggregatesDisjointStreams(t *testing.T) {
	cfg := server.Config{Shards: 2, Eps: 0.2, Delta: 0.05, Seed: 7, MaxKeys: 4}
	_, cA := boot(t, cfg)
	_, cB := boot(t, cfg)
	_, cAgg := boot(t, cfg)
	ctx := context.Background()

	truth := stream.NewFreq()
	gen := stream.NewZipf(1<<10, 20000, 1.1, 3)
	var a, b []client.Update
	i := 0
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		truth.Apply(u)
		cu := client.Update{Item: u.Item, Delta: u.Delta}
		if i%2 == 0 {
			a = append(a, cu)
		} else {
			b = append(b, cu)
		}
		i++
	}
	for _, cl := range []*client.Client{cA, cB, cAgg} {
		if _, err := cl.CreateTenant(ctx, "moments", client.TenantSpec{Sketch: "f2"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cA.Update(ctx, "moments", a); err != nil {
		t.Fatal(err)
	}
	if err := cB.Update(ctx, "moments", b); err != nil {
		t.Fatal(err)
	}
	for _, cl := range []*client.Client{cA, cB} {
		snap, err := cl.Snapshot(ctx, "moments")
		if err != nil {
			t.Fatal(err)
		}
		if err := cAgg.Merge(ctx, "moments", snap); err != nil {
			t.Fatal(err)
		}
	}
	got, err := cAgg.Estimate(ctx, "moments")
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(got, truth.Fp(2)); re > 0.2 {
		t.Errorf("aggregated F2 %v vs truth %v: rel err %.3f > 0.2", got, truth.Fp(2), re)
	}
}

// TestEntropyMergeCarriesMass: regression test for the cc keyspace's
// snapshot → merge workflow. The Entropy combiner weights shards by
// stream mass; a merge bypasses the engine's worker-side mass tally, so
// the engine must publish the CC sketch's own (merged) F1 counter or the
// destination server reports entropy 0.
func TestEntropyMergeCarriesMass(t *testing.T) {
	cfg := server.Config{Shards: 2, Eps: 0.3, Delta: 0.05, Seed: 11, MaxKeys: 4}
	_, cA := boot(t, cfg)
	_, cB := boot(t, cfg)
	ctx := context.Background()

	for _, c := range []*client.Client{cA, cB} {
		if _, err := c.CreateTenant(ctx, "ent", client.TenantSpec{Sketch: "cc"}); err != nil {
			t.Fatal(err)
		}
	}
	truth := stream.NewFreq()
	gen := stream.NewZipf(1<<10, 20000, 1.2, 9)
	var ups []client.Update
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		truth.Apply(u)
		ups = append(ups, client.Update{Item: u.Item, Delta: u.Delta})
	}
	if err := cA.Update(ctx, "ent", ups); err != nil {
		t.Fatal(err)
	}
	src, err := cA.Estimate(ctx, "ent")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(src-truth.Entropy()) > 0.5 {
		t.Errorf("cc entropy %v vs truth %v: additive error > 0.5 bits", src, truth.Entropy())
	}

	snap, err := cA.Snapshot(ctx, "ent")
	if err != nil {
		t.Fatal(err)
	}
	if err := cB.Merge(ctx, "ent", snap); err != nil {
		t.Fatal(err)
	}
	got, err := cB.Estimate(ctx, "ent")
	if err != nil {
		t.Fatal(err)
	}
	if got != src {
		t.Errorf("merged entropy %v != source %v (mass not carried through merge)", got, src)
	}
}

// TestQuotaAndDelete: the server-wide keyspace quota rejects creation
// beyond MaxKeys with 507 until a key is deleted.
func TestQuotaAndDelete(t *testing.T) {
	_, c := boot(t, server.Config{MaxKeys: 2, Shards: 1, Seed: 1})
	ctx := context.Background()

	for _, key := range []string{"a", "b"} {
		if _, err := c.CreateTenant(ctx, key, client.TenantSpec{Sketch: "kmv"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateTenant(ctx, "c", client.TenantSpec{Sketch: "kmv"}); client.StatusCode(err) != 507 {
		t.Fatalf("creation beyond quota: err = %v, want HTTP 507", err)
	}
	if err := c.DeleteKey(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "c", client.TenantSpec{Sketch: "kmv"}); err != nil {
		t.Fatalf("creation after delete freed a slot: %v", err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 2 || st.MaxKeys != 2 {
		t.Errorf("stats = %d/%d keys, want 2/2", st.Keys, st.MaxKeys)
	}
}

// TestDrain: after Drain, updates and merges get a retryable 503 (no
// panic from the closed engines), while estimates keep serving the fully
// flushed state.
func TestDrain(t *testing.T) {
	srv, c := boot(t, server.Config{Shards: 2, Seed: 1})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "kmv"}); err != nil {
		t.Fatal(err)
	}

	var ups []client.Update
	for i := uint64(0); i < 1000; i++ {
		ups = append(ups, client.Update{Item: i, Delta: 1})
	}
	if err := c.Update(ctx, "k", ups); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}

	srv.Drain()

	if err := c.Update(ctx, "k", ups); client.StatusCode(err) != 503 {
		t.Errorf("update while draining: err = %v, want HTTP 503", err)
	}
	if err := c.Merge(ctx, "k", snap); client.StatusCode(err) != 503 {
		t.Errorf("merge while draining: err = %v, want HTTP 503", err)
	}
	if _, err := c.CreateTenant(ctx, "new", client.TenantSpec{Sketch: "kmv"}); client.StatusCode(err) != 503 {
		t.Errorf("create while draining: err = %v, want HTTP 503", err)
	}
	got, err := c.Estimate(ctx, "k")
	if err != nil {
		t.Fatalf("estimate after drain: %v", err)
	}
	if re := relErr(got, 1000); re > 0.25 {
		t.Errorf("drained estimate %v vs truth 1000: rel err %.3f", got, re)
	}
}

// TestSketchTypeConflict: a keyspace keeps its type; asking for another
// type under the same key is an error.
func TestSketchTypeConflict(t *testing.T) {
	_, c := boot(t, server.Config{Shards: 1, Seed: 1})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "kmv"}); err == nil {
		t.Error("conflicting sketch type accepted")
	}
	if _, err := c.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Errorf("idempotent re-create failed: %v", err)
	}
	if _, err := c.CreateTenant(ctx, "x", client.TenantSpec{Sketch: "no-such-sketch"}); err == nil {
		t.Error("unknown sketch type accepted")
	}
}
