package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/waltest"
	"repro/internal/wire"
)

// bootDurable starts a durable sketchd instance (WAL + checkpoints in
// cfg.DataDir) on a loopback listener. The caller owns Shutdown; the
// cleanup Drain only stops engines if the test abandoned the server to
// simulate a crash.
func bootDurable(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	srv, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Drain)
	return srv, client.New(hs.URL, hs.Client())
}

// durableCfg is the shared durable-server config: fsync=none keeps the
// tests fast (crash simulation here is process-internal, so page-cache
// durability is enough — the wal package's own tests cover torn records).
func durableCfg(dir string) server.Config {
	return server.Config{
		Shards: 2, Eps: 0.25, Delta: 0.05, N: 1 << 20, Seed: 42,
		MaxKeys: 8, DataDir: dir, Fsync: "none",
	}
}

// seedTenants declares one tenant per recovery-interesting shape and
// ingests a deterministic stream into each: a plain mergeable f2, a
// robust (non-mergeable) f2+switching, a point-query countsketch, and a
// turnstile f2 that sees real deletions.
func seedTenants(t *testing.T, c *client.Client) map[string]float64 {
	t.Helper()
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "plain", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "robust", client.TenantSpec{Sketch: "f2", Policy: "switching"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "hot", client.TenantSpec{Sketch: "countsketch"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "turn", client.TenantSpec{Sketch: "f2", Model: "turnstile"}); err != nil {
		t.Fatal(err)
	}
	var batch []client.Update
	flush := func(keys ...string) {
		for _, key := range keys {
			if err := c.Update(context.Background(), key, batch); err != nil {
				t.Fatalf("update %s: %v", key, err)
			}
		}
		batch = batch[:0]
	}
	for i := 0; i < 2000; i++ {
		batch = append(batch, client.Update{Item: uint64(i % 257), Delta: 1})
		if len(batch) == 100 {
			flush("plain", "robust", "hot")
		}
	}
	// Turnstile traffic: inserts then partial deletions.
	for i := 0; i < 500; i++ {
		batch = append(batch, client.Update{Item: uint64(i % 31), Delta: 3})
	}
	flush("turn")
	for i := 0; i < 200; i++ {
		batch = append(batch, client.Update{Item: uint64(i % 31), Delta: -1})
	}
	flush("turn")

	est := make(map[string]float64)
	for _, key := range []string{"plain", "robust", "hot", "turn"} {
		v, err := c.Estimate(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		est[key] = v
	}
	return est
}

// checkRecovered asserts the reopened server reproduces every tenant's
// estimate exactly (same resolved seeds, deterministic replay) and that
// the resolved spec — sketch, policy, model — survived.
func checkRecovered(t *testing.T, c *client.Client, want map[string]float64) {
	t.Helper()
	ctx := context.Background()
	for key, w := range want {
		got, err := c.Estimate(ctx, key)
		if err != nil {
			t.Fatalf("estimate %s after recovery: %v", key, err)
		}
		if got != w {
			t.Errorf("estimate %s: recovered %v, acknowledged stream gives %v", key, got, w)
		}
	}
	ks, err := c.KeyStats(ctx, "robust")
	if err != nil {
		t.Fatal(err)
	}
	if ks.Policy != "switching" {
		t.Errorf("robust tenant recovered with policy %q, want switching", ks.Policy)
	}
	if ks.Robustness == nil {
		t.Error("robust tenant recovered without flip-budget state")
	}
	ks, err = c.KeyStats(ctx, "turn")
	if err != nil {
		t.Fatal(err)
	}
	if ks.Model != "turnstile" {
		t.Errorf("turnstile tenant recovered with model %q, want turnstile", ks.Model)
	}
	if ks.DeletedMass == 0 {
		t.Error("turnstile tenant recovered with zero deleted mass; deletions were not replayed")
	}
}

// TestDurableRecoveryAfterShutdown is the clean path: Shutdown writes a
// final checkpoint per mergeable tenant, and a fresh Open reproduces
// every tenant — including the robust tenant, which has no checkpoint
// and recovers by full deterministic replay.
func TestDurableRecoveryAfterShutdown(t *testing.T) {
	dir := t.TempDir()
	srv, c := bootDurable(t, durableCfg(dir))
	want := seedTenants(t, c)
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	srv2, c2 := bootDurable(t, durableCfg(dir))
	rec := srv2.Recovery()
	if rec.Tenants != 4 {
		t.Fatalf("recovered %d tenants, want 4 (stats: %+v)", rec.Tenants, rec)
	}
	checkRecovered(t, c2, want)
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRecoveryAfterCrash abandons the server without Shutdown —
// no final checkpoints — so recovery is create-record re-declaration
// plus full WAL replay of the acknowledged stream.
func TestDurableRecoveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	_, c := bootDurable(t, durableCfg(dir)) // never Shutdown: simulated crash
	want := seedTenants(t, c)

	srv2, c2 := bootDurable(t, durableCfg(waltest.Crash(t, dir)))
	rec := srv2.Recovery()
	if rec.Tenants != 4 {
		t.Fatalf("recovered %d tenants, want 4 (stats: %+v)", rec.Tenants, rec)
	}
	if rec.ReplayedUpdates == 0 {
		t.Fatal("crash recovery replayed no updates")
	}
	checkRecovered(t, c2, want)
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredStatsListKeysInOrder: /v1/stats lists a keyspace sorted by
// key, so two servers recovered from copies of one data directory answer it
// with equal bodies. The tenant map is ranged in a fresh order on every
// pass, so over a dozen keys, declared out of order, an unsorted list
// almost never matches sorted order or the other server's.
func TestRecoveredStatsListKeysInOrder(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.MaxKeys = 16
	_, c := bootDurable(t, cfg) // never Shutdown: both copies recover by replay
	ctx := context.Background()
	for i := range 12 {
		key := fmt.Sprintf("k%02d", i*7%12)
		if _, err := c.CreateTenant(ctx, key, client.TenantSpec{Sketch: "f2"}); err != nil {
			t.Fatal(err)
		}
		if err := c.Update(ctx, key, []client.Update{{Item: uint64(i), Delta: int64(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	var bodies [2][]byte
	for i := range bodies {
		cfg.DataDir = waltest.Crash(t, dir)
		_, c := bootDurable(t, cfg)
		stats, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, ks := range stats.Tenants {
			keys = append(keys, ks.Key)
		}
		if len(keys) != 12 || !slices.IsSorted(keys) {
			t.Errorf("recovered server %d lists keys %v, want the 12 in key order", i, keys)
		}
		bodies[i], _ = json.Marshal(stats)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("two recoveries of one directory answer /v1/stats differently:\n%s\n%s", bodies[0], bodies[1])
	}
}

// TestDurableTornTailRecovers appends garbage to the newest WAL segment
// (a crash mid-append) and verifies boot truncates it instead of
// refusing to start, with every acknowledged update intact.
func TestDurableTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	_, c := bootDurable(t, durableCfg(dir))
	want := seedTenants(t, c)

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err=%v)", dir, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, c2 := bootDurable(t, durableCfg(waltest.Crash(t, dir)))
	rec := srv2.Recovery()
	if rec.WAL.TruncatedBytes == 0 {
		t.Errorf("torn tail not truncated (stats: %+v)", rec.WAL)
	}
	checkRecovered(t, c2, want)
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCorruptCheckpointFallsBackToReplay flips a byte inside a
// checkpoint written by Shutdown and verifies the tenant still recovers
// — by full replay — rather than serving corrupt state or failing boot.
func TestDurableCorruptCheckpointFallsBackToReplay(t *testing.T) {
	dir := t.TempDir()
	srv, c := bootDurable(t, durableCfg(dir))
	want := seedTenants(t, c)
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	cks, err := filepath.Glob(filepath.Join(dir, "ck-*.ckpt"))
	if err != nil || len(cks) == 0 {
		t.Fatalf("no checkpoints in %s after Shutdown (err=%v)", dir, err)
	}
	for _, path := range cks {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x40
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv2, c2 := bootDurable(t, durableCfg(dir))
	rec := srv2.Recovery()
	if rec.SkippedCheckpoints == 0 {
		t.Errorf("corrupt checkpoints not detected (stats: %+v)", rec)
	}
	if rec.ReplayedUpdates == 0 {
		t.Error("checkpoint fallback did not replay the log")
	}
	checkRecovered(t, c2, want)
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRecoversStoredCreateRecord pins what a create record on disk
// looks like from the reading side: the resolved sketch × policy cell and
// every sizing field, so a log recovers from what it says alone. The record
// is one a sketchd wrote for an f2+ring tenant (seed 7, two shards); replay
// must rebuild exactly the tenant a fresh declaration of that cell builds.
func TestDurableRecoversStoredCreateRecord(t *testing.T) {
	const stored = `{"sketch":"f2","policy":"ring","eps":0.2,"delta":0.05,"n":4294967296,"shards":2,"batch":256,"flip_budget":64,"model":"insertion","seed":7}`
	ups := make([]wire.Update, 3000)
	adds := make([]uint64, len(ups))
	for i := range ups {
		adds[i] = uint64(i*i) % 509
		ups[i] = wire.Update{Item: adds[i], Delta: 1}
	}
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []wal.Record{
		{Kind: wal.KindCreate, Key: "a", Data: []byte(stored)},
		{Kind: wal.KindUpdate, Key: "a", Data: wire.AppendUpdates(nil, ups)},
	} {
		if _, err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	srv, c := bootDurable(t, durableCfg(dir))
	if rec := srv.Recovery(); rec.Tenants != 1 || rec.ReplayedUpdates != len(ups) {
		t.Fatalf("recovery = %+v, want 1 tenant and %d replayed updates", rec, len(ups))
	}
	ks, err := c.KeyStats(ctx, "a")
	if err != nil || ks.Sketch != "f2" || ks.Policy != "ring" || ks.Shards != 2 || ks.Spec.Eps != 0.2 {
		t.Fatalf("recovered tenant = %+v (%v), want f2+ring on 2 shards at ε = 0.2", ks, err)
	}
	_, fresh := boot(t, server.Config{Seed: 1})
	if _, err := fresh.CreateTenant(ctx, "a", client.TenantSpec{Sketch: "f2", Policy: "ring", Eps: 0.2, Shards: 2, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Add(ctx, "a", adds...); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Query(ctx, "a", []client.Query{{Kind: server.QueryEstimate}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(ctx, "a", []client.Query{{Kind: server.QueryEstimate}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered tenant answers %+v, a fresh f2+ring tenant %+v", got, want)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableDeleteAndRecreateReplay pins delete semantics across a
// crash: a deleted tenant stays gone, and a key deleted then re-created
// recovers only its post-re-create stream.
func TestDurableDeleteAndRecreateReplay(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, c := bootDurable(t, durableCfg(dir))
	if _, err := c.CreateTenant(ctx, "gone", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(ctx, "gone", 1, 2, 3, 4, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteKey(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "phoenix", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(ctx, "phoenix", 10, 11, 12); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteKey(ctx, "phoenix"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "phoenix", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(ctx, "phoenix", 20); err != nil {
		t.Fatal(err)
	}
	want, err := c.Estimate(ctx, "phoenix")
	if err != nil {
		t.Fatal(err)
	}

	srv2, c2 := bootDurable(t, durableCfg(waltest.Crash(t, dir))) // crash: no Shutdown above
	if _, err := c2.Estimate(ctx, "gone"); client.StatusCode(err) != 404 {
		t.Errorf("deleted tenant resurrected across restart: err=%v", err)
	}
	got, err := c2.Estimate(ctx, "phoenix")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("re-created tenant recovered estimate %v, want %v (post-re-create stream only)", got, want)
	}
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRecreatedKeyKeepsItsCheckpoint: a delete record older than a
// key's restored checkpoint is that key's previous life and must not kill
// the checkpointed tenant — after a crash the merge the checkpoint alone
// carries survives, after a clean shutdown nothing replays. A delete newer
// than the checkpoint (the file outlived its tenant) still deletes.
func TestDurableRecreatedKeyKeepsItsCheckpoint(t *testing.T) {
	ctx := context.Background()
	spec := client.TenantSpec{Sketch: "kmv"}
	// recreated leaves key "k" created, deleted, created again, fed two
	// items and merged with four more, and returns its estimate.
	recreated := func(t *testing.T, cfg server.Config) (*server.Server, float64) {
		srv, c := bootDurable(t, cfg)
		src := server.New(server.Config{
			Shards: cfg.Shards, Eps: cfg.Eps, Delta: cfg.Delta, N: cfg.N,
			Seed: cfg.Seed, MaxKeys: cfg.MaxKeys,
		})
		hs := httptest.NewServer(src.Handler())
		t.Cleanup(hs.Close)
		t.Cleanup(src.Drain)
		cs := client.New(hs.URL, hs.Client())
		if _, err := cs.CreateTenant(ctx, "k", spec); err != nil {
			t.Fatal(err)
		}
		if err := cs.Add(ctx, "k", 100, 101, 102, 103); err != nil {
			t.Fatal(err)
		}
		snap, err := cs.Snapshot(ctx, "k")
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range []func() error{
			func() error { _, err := c.CreateTenant(ctx, "k", spec); return err },
			func() error { return c.DeleteKey(ctx, "k") },
			func() error { _, err := c.CreateTenant(ctx, "k", spec); return err },
			func() error { return c.Add(ctx, "k", 1, 2) },
			func() error { return c.Merge(ctx, "k", snap) },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		want, err := c.Estimate(ctx, "k")
		if err != nil || want != 6 {
			t.Fatalf("estimate before restart: %v (%v), want 6", want, err)
		}
		return srv, want
	}

	for _, arm := range []string{"crash", "clean shutdown"} {
		t.Run(arm, func(t *testing.T) {
			cfg := durableCfg(t.TempDir())
			srv, want := recreated(t, cfg)
			if arm == "clean shutdown" {
				if err := srv.Shutdown(); err != nil {
					t.Fatal(err)
				}
			} else {
				cfg.DataDir = waltest.Crash(t, cfg.DataDir)
			}
			srv2, c2 := bootDurable(t, cfg)
			if rec := srv2.Recovery(); arm == "clean shutdown" && rec.ReplayedUpdates != 0 {
				t.Errorf("replayed %d updates after a clean shutdown, want a checkpoint-only recovery", rec.ReplayedUpdates)
			}
			if got, err := c2.Estimate(ctx, "k"); err != nil || got != want {
				t.Errorf("recovered estimate %v (%v), want %v: the merge's checkpoint was discarded", got, err, want)
			}
			if err := srv2.Shutdown(); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("stale checkpoint", func(t *testing.T) {
		cfg := durableCfg(t.TempDir())
		srv, _ := recreated(t, cfg)
		if err := srv.Shutdown(); err != nil {
			t.Fatal(err)
		}
		paths, _ := filepath.Glob(filepath.Join(cfg.DataDir, "ck-*.ckpt"))
		if len(paths) != 1 {
			t.Fatalf("checkpoint files %v, want one", paths)
		}
		stale, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		_, c := bootDurable(t, cfg)
		if err := c.DeleteKey(ctx, "k"); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[0], stale, 0o644); err != nil { // as if its removal had failed
			t.Fatal(err)
		}
		cfg.DataDir = waltest.Crash(t, cfg.DataDir)
		srv2, c2 := bootDurable(t, cfg) // no Shutdown above
		if _, err := c2.Estimate(ctx, "k"); client.StatusCode(err) != 404 {
			t.Errorf("a tenant deleted after its checkpoint came back: err=%v", err)
		}
		if err := srv2.Shutdown(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDurableCheckpointCadence drives a mergeable tenant past
// CheckpointEvery and verifies the checkpoint is on disk when the crossing
// update is acknowledged, and cuts the replay tail on the next boot.
func TestDurableCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.CheckpointEvery = 256
	_, c := bootDurable(t, cfg)
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "plain", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	const total = 2000
	batch := make([]client.Update, 0, 100)
	for i := 0; i < total; i++ {
		batch = append(batch, client.Update{Item: uint64(i % 97), Delta: 1})
		if len(batch) == cap(batch) {
			if err := c.Update(ctx, "plain", batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
			// The update that crosses the cadence checkpoints before its ack.
			cks, _ := filepath.Glob(filepath.Join(dir, "ck-*.ckpt"))
			if crossed := i+1 >= cfg.CheckpointEvery; crossed != (len(cks) > 0) {
				t.Fatalf("after %d updates with CheckpointEvery=%d: checkpoints %v", i+1, cfg.CheckpointEvery, cks)
			}
		}
	}
	want, err := c.Estimate(ctx, "plain")
	if err != nil {
		t.Fatal(err)
	}

	cfg.DataDir = waltest.Crash(t, dir)
	srv2, c2 := bootDurable(t, cfg) // crash: replay only the post-checkpoint tail
	rec := srv2.Recovery()
	if rec.ReplayedUpdates >= total {
		t.Errorf("checkpoint did not cut replay: replayed %d of %d updates", rec.ReplayedUpdates, total)
	}
	got, err := c2.Estimate(ctx, "plain")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("checkpoint+tail recovery gives %v, acknowledged stream gives %v", got, want)
	}
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableMergeCheckpointed pins merge durability: merges are not
// WAL-logged (a snapshot body is not a stream), so /v1/merge on a
// durable server must force a checkpoint — otherwise a crash right
// after the 200 would silently lose the folded-in state.
func TestDurableMergeCheckpointed(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := durableCfg(dir)
	_, c := bootDurable(t, cfg)
	if _, err := c.CreateTenant(ctx, "m", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(ctx, "m", 1, 2, 3); err != nil {
		t.Fatal(err)
	}

	// A same-seed in-memory peer builds the state to merge in.
	src := server.New(server.Config{
		Shards: cfg.Shards, Eps: cfg.Eps, Delta: cfg.Delta, N: cfg.N,
		Seed: cfg.Seed, MaxKeys: cfg.MaxKeys,
	})
	hs := httptest.NewServer(src.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(src.Drain)
	cs := client.New(hs.URL, hs.Client())
	if _, err := cs.CreateTenant(ctx, "m", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if err := cs.Add(ctx, "m", 100, 101, 102, 103); err != nil {
		t.Fatal(err)
	}
	snap, err := cs.Snapshot(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Merge(ctx, "m", snap); err != nil {
		t.Fatal(err)
	}
	want, err := c.Estimate(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}

	cfg.DataDir = waltest.Crash(t, dir)
	srv2, c2 := bootDurable(t, cfg) // crash: no Shutdown — checkpoint must carry the merge
	got, err := c2.Estimate(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("post-merge recovery gives %v, want %v: merged state lost across crash", got, want)
	}
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestEstimateDuringDrainIsCoherent pins the server-level guarantee the
// engine.Flush fix provides: an /v1/estimate racing Drain returns the
// fully-drained estimate — every acknowledged update included — never a
// stale mid-close snapshot. A same-seed twin supplies the expected value.
func TestEstimateDuringDrainIsCoherent(t *testing.T) {
	cfg := server.Config{Shards: 2, Eps: 0.25, Delta: 0.05, N: 1 << 20, Seed: 7, MaxKeys: 4}
	ctx := context.Background()

	_, twin := boot(t, cfg)
	srv, c := boot(t, cfg)
	for _, cl := range []*client.Client{twin, c} {
		if _, err := cl.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "f2"}); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]client.Update, 0, 250)
	for i := 0; i < 5000; i++ {
		batch = append(batch, client.Update{Item: uint64(i % 499), Delta: 1})
		if len(batch) == cap(batch) {
			for _, cl := range []*client.Client{twin, c} {
				if err := cl.Update(ctx, "k", batch); err != nil {
					t.Fatal(err)
				}
			}
			batch = batch[:0]
		}
	}
	want, err := twin.Estimate(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}

	// Race reads against the drain. Every estimate served — before,
	// during, or after engine close — must be the full-stream value,
	// because every update above was acknowledged before Drain began.
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Drain()
	}()
	for i := 0; ; i++ {
		got, err := c.Estimate(ctx, "k")
		if err != nil {
			t.Fatalf("estimate %d during drain: %v", i, err)
		}
		if got != want {
			t.Fatalf("estimate %d during drain: %v, want drained value %v", i, got, want)
		}
		select {
		case <-done:
			if got, err := c.Estimate(ctx, "k"); err != nil || got != want {
				t.Fatalf("post-drain estimate: %v err=%v, want %v", got, err, want)
			}
			// Snapshots served after (and during) drain must decode and
			// carry the drained state: merging into a fresh same-seed
			// server reproduces the estimate.
			snap, err := c.Snapshot(ctx, "k")
			if err != nil {
				t.Fatal(err)
			}
			_, fresh := boot(t, cfg)
			if _, err := fresh.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "f2"}); err != nil {
				t.Fatal(err)
			}
			if err := fresh.Merge(ctx, "k", snap); err != nil {
				t.Fatal(err)
			}
			if got, err := fresh.Estimate(ctx, "k"); err != nil || got != want {
				t.Fatalf("snapshot taken under drain merges to %v err=%v, want %v", got, err, want)
			}
			return
		default:
		}
	}
}

// recordOffset is the byte offset of the n-th record (from 1) of the
// segment at path.
func recordOffset(t *testing.T, path string, n int) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(13) // segment header: magic, version, first LSN
	for i := 1; i < n; i++ {
		if off+8 > int64(len(data)) {
			t.Fatalf("%s holds fewer than %d records", path, n)
		}
		off += 8 + int64(binary.LittleEndian.Uint32(data[off:]))
	}
	return off
}

// TestCheckpointNeverClaimsPastTheLogHead: a kmv tenant checkpoints at LSN
// 11, and the log then loses update records 9–11 (a torn or unsynced tail,
// or a corrupt record 9). Recovery restores the checkpoint, which still
// holds those updates, and the server acknowledges five more batches under
// LSNs 9–13. A second recovery must replay all five: the checkpoint must not
// claim the LSNs the log reused.
func TestCheckpointNeverClaimsPastTheLogHead(t *testing.T) {
	ctx := context.Background()
	batch := func(i int) []uint64 { // ten items no other batch holds
		items := make([]uint64, 10)
		for j := range items {
			items[j] = uint64(i*10 + j)
		}
		return items
	}
	for _, arm := range []struct {
		fsync string
		lose  func(t *testing.T, seg string) // loses records 9 onward
	}{
		{"batch", truncateFromRecord9},
		{"none", truncateFromRecord9},
		{"always", func(t *testing.T, seg string) {
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			b[recordOffset(t, seg, 9)+10] ^= 0x01
			if err := os.WriteFile(seg, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(arm.fsync, func(t *testing.T) {
			cfg := durableCfg(t.TempDir())
			cfg.Fsync, cfg.CheckpointEvery = arm.fsync, 100
			_, c := bootDurable(t, cfg)
			if _, err := c.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "kmv"}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ { // LSNs 2–11; the tenth batch checkpoints
				if err := c.Add(ctx, "k", batch(i)...); err != nil {
					t.Fatal(err)
				}
			}
			cfg.DataDir = waltest.Crash(t, cfg.DataDir)
			arm.lose(t, filepath.Join(cfg.DataDir, "seg-00000001.wal"))

			srv, c := bootDurable(t, cfg)
			if rec := srv.Recovery(); rec.Tenants != 1 {
				t.Fatalf("recovery = %+v, want the checkpointed tenant", rec)
			}
			for i := 10; i < 15; i++ {
				if err := c.Add(ctx, "k", batch(i)...); err != nil {
					t.Fatal(err)
				}
			}
			want, err := c.Estimate(ctx, "k")
			if err != nil || want != 150 {
				t.Fatalf("estimate before the second crash: %v (%v), want 150", want, err)
			}

			cfg.DataDir = waltest.Crash(t, cfg.DataDir)
			srv2, c2 := bootDurable(t, cfg)
			if got, err := c2.Estimate(ctx, "k"); err != nil || got != want {
				t.Errorf("second recovery estimates %v (%v), want %v: the checkpoint claimed LSNs the log reused", got, err, want)
			}
			if err := srv2.Shutdown(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func truncateFromRecord9(t *testing.T, seg string) {
	if err := os.Truncate(seg, recordOffset(t, seg, 9)); err != nil {
		t.Fatal(err)
	}
}

// TestStoredRobustSpecKeepsItsShards: a robust spec that names no shards
// resolves to one, but a stored spec carries its resolved count. A data
// directory journaled when such a declaration resolved to the server's two
// shards — its create record written here byte for byte as that server
// stored it — recovers a two-shard tenant on a server whose robust default
// is now one, answering /v2/query (both codecs) and /v1/stats byte-equal to
// a twin declared with two shards outright and fed the same batches.
func TestStoredRobustSpecKeepsItsShards(t *testing.T) {
	const key = "robust"
	const stored = `{"sketch":"f2","policy":"switching","eps":0.25,"delta":0.05,"n":1048576,"shards":2,"flip_budget":64,"model":"insertion","seed":42}`
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	cfg := durableCfg("")
	twin := server.New(cfg)
	defer twin.Drain()
	declare(t, twin.Handler(), key, server.TenantSpec{Sketch: "f2", Policy: "switching", Shards: 2})
	if _, err := l.Append(wal.Record{Kind: wal.KindCreate, Key: key, Data: []byte(stored)}); err != nil {
		t.Fatal(err)
	}
	for b := range 40 {
		us := make([]wire.Update, 512)
		for j := range us {
			us[j] = wire.Update{Item: uint64((b*len(us) + j) % (700 + 60*b)), Delta: 1}
		}
		frame := wire.AppendUpdates(nil, us)
		if _, err := l.Append(wal.Record{Kind: wal.KindUpdate, Key: key, Data: frame}); err != nil {
			t.Fatal(err)
		}
		if w := call(twin.Handler(), http.MethodPost, "/v2/update?key="+key, frame, wire.ContentType, ""); w.Code != http.StatusOK {
			t.Fatalf("twin batch %d: HTTP %d %s", b, w.Code, w.Body.Bytes())
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.DataDir = dir
	rec, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Drain()
	if ks := keyStats(t, rec.Handler(), key); ks.Shards != 2 || ks.Robustness == nil || ks.Robustness.Switches == 0 {
		t.Fatalf("recovered tenant %+v, want two shards that have switched", ks)
	}
	query, _ := json.Marshal(server.QueryRequest{Key: key, Queries: []server.Query{{Kind: server.QueryEstimate}}})
	for _, accept := range []string{"", wire.ContentType} {
		a := call(rec.Handler(), http.MethodPost, "/v2/query", query, "application/json", accept)
		b := call(twin.Handler(), http.MethodPost, "/v2/query", query, "application/json", accept)
		if a.Code != http.StatusOK || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Errorf("/v2/query (Accept %q): recovered HTTP %d %q, twin %q", accept, a.Code, a.Body.Bytes(), b.Body.Bytes())
		}
	}
	a := call(rec.Handler(), http.MethodGet, "/v1/stats", nil, "", "")
	b := call(twin.Handler(), http.MethodGet, "/v1/stats", nil, "", "")
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Errorf("/v1/stats: recovered %s, twin %s", a.Body.Bytes(), b.Body.Bytes())
	}
}

// TestStoredRobustEntropyIsRefusedByName: robust entropy left the server
// (a create for cc under switching or paths is a 400), but a data directory
// an earlier release wrote may still declare such a tenant. Recovery must
// not drop it and its acknowledged updates without a word, nor rebuild it
// under other sizing: Open fails, naming the key and the reason. Once the
// key's delete follows its create in the log, which the earlier release
// writes, the directory opens and every other tenant comes back.
func TestStoredRobustEntropyIsRefusedByName(t *testing.T) {
	const stored = `{"sketch":"cc","policy":"switching","eps":0.2,"delta":0.05,"n":1048576,"shards":1,"flip_budget":64,"model":"insertion","seed":42}`
	dir := t.TempDir()
	appendAll := func(recs ...wal.Record) {
		t.Helper()
		l, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	frame := wire.AppendUpdates(nil, []wire.Update{{Item: 1, Delta: 1}, {Item: 2, Delta: 3}})
	appendAll(
		wal.Record{Kind: wal.KindCreate, Key: "ent", Data: []byte(stored)},
		wal.Record{Kind: wal.KindUpdate, Key: "ent", Data: frame},
		wal.Record{Kind: wal.KindCreate, Key: "f2", Data: []byte(`{"sketch":"f2","policy":"none","shards":1}`)},
		wal.Record{Kind: wal.KindUpdate, Key: "f2", Data: frame},
	)
	if _, err := server.Open(durableCfg(dir)); err == nil || !strings.Contains(err.Error(), `"ent"`) || !strings.Contains(err.Error(), "robust entropy is not hosted") {
		t.Fatalf("Open over a stored cc+switching tenant: %v, want an error naming the key and the reason", err)
	}
	appendAll(wal.Record{Kind: wal.KindDelete, Key: "ent"})
	srv, err := server.Open(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if ks := keyStats(t, srv.Handler(), "f2"); srv.Recovery().Tenants != 1 || ks.Mass != 4 {
		t.Fatalf("recovery %+v, f2 tenant %+v: want the one tenant, its mass 4", srv.Recovery(), ks)
	}
}
