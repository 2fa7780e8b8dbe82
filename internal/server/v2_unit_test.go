package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/waltest"
	"repro/internal/wire"
)

// TestU64JSON: item identifiers survive the wire in both directions —
// numbers below 2^53, decimal strings at and above it — and malformed
// forms are rejected rather than truncated.
func TestU64JSON(t *testing.T) {
	for _, v := range []uint64{0, 1, 1<<53 - 1, 1 << 53, 1<<64 - 1} {
		enc, err := json.Marshal(U64(v))
		if err != nil {
			t.Fatal(err)
		}
		if v >= jsonSafeInt && enc[0] != '"' {
			t.Errorf("U64(%d) marshaled as %s, want a string above 2^53", v, enc)
		}
		if v < jsonSafeInt && enc[0] == '"' {
			t.Errorf("U64(%d) marshaled as %s, want a bare number below 2^53", v, enc)
		}
		var dec U64
		if err := json.Unmarshal(enc, &dec); err != nil {
			t.Fatal(err)
		}
		if uint64(dec) != v {
			t.Errorf("U64 round trip %d → %s → %d", v, enc, uint64(dec))
		}
	}
	// The exact bug this type fixes: a float64-based client sending the
	// id as a string keeps all 64 bits.
	var u UpdateItem
	if err := json.Unmarshal([]byte(`{"item":"18446744073709551615","delta":-3}`), &u); err != nil {
		t.Fatal(err)
	}
	if u.Item != 1<<64-1 || u.Delta != -3 {
		t.Errorf("string-encoded update decoded to %+v", u)
	}
	enc, _ := json.Marshal(UpdateItem{Item: 1 << 60, Delta: 1})
	if !strings.Contains(string(enc), `"1152921504606846976"`) {
		t.Errorf("large item marshaled as %s, want a string", enc)
	}
	for _, bad := range []string{`{"item":1.5}`, `{"item":-1}`, `{"item":"x"}`, `{"item":"1.0"}`, `{"item":18446744073709551616}`} {
		if err := json.Unmarshal([]byte(bad), &u); err == nil {
			t.Errorf("malformed item %s accepted", bad)
		}
	}
}

// TestTenantSpecNormalize: defaults fill unset fields, malformed values
// are rejected (never repaired), caps are enforced.
func TestTenantSpecNormalize(t *testing.T) {
	cfg := Config{}.withDefaults()
	ts, err := TenantSpec{}.normalize(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Eps != cfg.Eps || ts.Delta != cfg.Delta || ts.Shards != cfg.Shards ||
		ts.FlipBudget != cfg.FlipBudget || uint64(ts.N) != cfg.N {
		t.Errorf("zero spec did not inherit server defaults: %+v vs %+v", ts, cfg)
	}
	if ts, err := (TenantSpec{Eps: 0.01, Shards: 2}).normalize(cfg, false); err != nil || ts.Eps != 0.01 || ts.Shards != 2 {
		t.Errorf("explicit fields not kept: %+v (%v)", ts, err)
	}
	for _, bad := range []TenantSpec{
		{Eps: math.NaN()}, {Eps: -0.1}, {Eps: 1}, {Eps: math.Inf(1)},
		{Delta: math.NaN()}, {Delta: -1}, {Delta: 2},
		{Shards: -1}, {Shards: MaxTenantShards + 1},
		{FlipBudget: -2}, {FlipBudget: MaxTenantFlipBudget + 1},
		{Model: "cash_register"},
		{Model: "turnstile", Lambda: -3},
		{Model: "turnstile", Lambda: MaxTenantFlipBudget + 1},
		{Model: "turnstile", Alpha: 2},
		{Model: "turnstile", Lambda: 64, FlipBudget: 32}, // λ/budget conflict
		{Model: "bounded-deletion"},                      // wrong separator
		{Model: "bounded_deletion"},                      // α required
		{Model: "bounded_deletion", Alpha: 0.5},          // α < 1
		{Model: "bounded_deletion", Alpha: -4},
		{Model: "bounded_deletion", Alpha: math.NaN()},
		{Model: "bounded_deletion", Alpha: math.Inf(1)},
		{Model: "bounded_deletion", Alpha: MaxTenantAlpha * 2},
		{Model: "bounded_deletion", Alpha: 4, Lambda: 8},
		{Model: "insertion", Lambda: 8},
		{Model: "insertion", Alpha: 2},
		{Lambda: 8}, // λ without declaring turnstile
		{Alpha: 2},  // α without declaring bounded_deletion
	} {
		if _, err := bad.normalize(cfg, false); err == nil {
			t.Errorf("malformed spec %+v accepted", bad)
		}
	}

	// Model defaults and the turnstile λ/budget unification.
	ts, err = TenantSpec{}.normalize(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Model != "insertion" {
		t.Errorf("zero spec normalized to model %q, want insertion", ts.Model)
	}
	ts, err = TenantSpec{Model: "turnstile"}.normalize(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Lambda != cfg.FlipBudget || ts.FlipBudget != ts.Lambda {
		t.Errorf("turnstile spec without λ got Lambda=%d FlipBudget=%d, want both %d", ts.Lambda, ts.FlipBudget, cfg.FlipBudget)
	}
	ts, err = TenantSpec{Model: "turnstile", Lambda: 48}.normalize(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if ts.FlipBudget != 48 {
		t.Errorf("turnstile λ=48 got FlipBudget=%d, want the declared flip bound to be the budget", ts.FlipBudget)
	}
	// An explicit budget that agrees with λ is not a conflict.
	if _, err := (TenantSpec{Model: "turnstile", Lambda: 48, FlipBudget: 48}).normalize(cfg, false); err != nil {
		t.Errorf("agreeing λ and flip_budget rejected: %v", err)
	}
	ts, err = TenantSpec{Model: "bounded_deletion", Alpha: 4}.normalize(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Alpha != 4 || ts.Model != "bounded_deletion" {
		t.Errorf("bounded_deletion α=4 normalized to %+v", ts)
	}

	// Caps bound client requests, not operator flags: a server run with
	// -shards above the cap keeps serving default-shaped tenants.
	bigCfg := Config{Shards: MaxTenantShards * 2, FlipBudget: MaxTenantFlipBudget * 2}.withDefaults()
	ts, err = TenantSpec{}.normalize(bigCfg, false)
	if err != nil {
		t.Fatalf("inherited over-cap server flags rejected: %v", err)
	}
	if ts.Shards != bigCfg.Shards || ts.FlipBudget != bigCfg.FlipBudget {
		t.Errorf("over-cap server flags not inherited: %+v", ts)
	}
	// An explicit over-cap request on the same server is still refused.
	if _, err := (TenantSpec{Shards: MaxTenantShards + 1}).normalize(bigCfg, false); err == nil {
		t.Error("explicit over-cap shards accepted")
	}
}

// TestShardsResolution: a robust spec that names no shards resolves to one
// shard, one ensemble whose flips walk the ladder once; a static spec takes
// the server's count; an explicit count wins either way, and a stored spec,
// resolved as trusted, keeps the count it carries.
func TestShardsResolution(t *testing.T) {
	cfg := Config{Shards: 3}.withDefaults()
	for _, c := range []struct {
		spec TenantSpec
		want int
	}{
		{TenantSpec{Sketch: "f2"}, 3},
		{TenantSpec{Sketch: "f2", Policy: "none"}, 3},
		{TenantSpec{Sketch: "kmv", Policy: "switching"}, 1},
		{TenantSpec{Sketch: "f2", Policy: "ring"}, 1},
		{TenantSpec{Sketch: "f2", Policy: "paths"}, 1},
		{TenantSpec{Sketch: "countsketch", Policy: "ring"}, 1},
		{TenantSpec{Sketch: "f2", Policy: "switching", Model: "turnstile"}, 1},
		{TenantSpec{Sketch: "f2", Shards: 2}, 2},
		{TenantSpec{Sketch: "f2", Policy: "switching", Shards: 2}, 2},
		{TenantSpec{Sketch: "kmv", Policy: "ring", Shards: 5}, 5},
	} {
		_, ts, err := resolve(c.spec, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		if ts.Shards != c.want {
			t.Errorf("%+v resolved to %d shards, want %d", c.spec, ts.Shards, c.want)
		}
		if _, again, err := resolveTrusted(ts, cfg); err != nil || again.Shards != c.want {
			t.Errorf("%+v stored and read back: %d shards (%v), want %d", c.spec, again.Shards, err, c.want)
		}
	}
}

// TestResolvePerTenantSizing: resolve is a function of the tenant spec —
// two tenants with different ε get differently sized shard estimators
// from the same server config.
func TestResolvePerTenantSizing(t *testing.T) {
	cfg := Config{Shards: 1, Seed: 1}.withDefaults()
	sizeOf := func(eps float64) int {
		sp, ts, err := resolve(TenantSpec{Sketch: "countsketch", Eps: eps}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sp.factory(ts)(1).SpaceBytes()
	}
	coarse, fine := sizeOf(0.4), sizeOf(0.1)
	if fine <= coarse {
		t.Errorf("ε=0.1 tenant (%d bytes) not larger than ε=0.4 tenant (%d bytes)", fine, coarse)
	}
	// Point-query metadata is true exactly where a theorem (or the static
	// sketch's oblivious guarantee) covers a per-coordinate answer, and that
	// is exactly where the shard estimator can answer one.
	for name := range bases {
		for _, policy := range Policies() {
			sp, ts, err := resolve(TenantSpec{Sketch: name, Policy: policy}, cfg)
			if err != nil {
				continue // cc+ring: not a hostable cell
			}
			want := name == "countsketch" && (policy == "none" || policy == "ring")
			if sp.points != want {
				t.Errorf("%s reports point queries = %v, want %v", sp.Display(), sp.points, want)
			}
			if _, ok := sp.factory(ts)(1).(sketch.TopKQuerier); ok != want {
				t.Errorf("%s shard estimator answers point queries = %v, want %v", sp.Display(), ok, want)
			}
			if want && sp.l2Of == nil {
				t.Errorf("%s has no L2 conversion for the point bound", sp.Display())
			}
		}
	}
}

// TestProjectedStateTracksBuilt holds admit's arithmetic to the estimators
// it stands in for: for every registry cell, at test-scale parameters, the
// projection is within 2× of the peak SpaceBytes of the built shard
// estimator, and within 5 % for a kmv cell. The occupancy-priced sketches (a KMV charges per retained
// minimum, a CountSketch per pool entry) are first fed enough distinct
// items, in engine-sized batches, to fill them and to force a drain of the
// trailing copies; the fixed-footprint ones are read as built, which also
// keeps the per-update cost of a CC ensemble out of the suite. A dense
// ensemble builds its copies as they are needed, so every switching cell
// is first fed a drain's worth of zero updates to distinct items, which
// builds them all. Signed
// counters are priced at the 8 bytes one large client delta makes of them:
// the peak compared is that of the build after such a delta has reached
// every copy, and until then a build must sit under its projection.
func TestProjectedStateTracksBuilt(t *testing.T) {
	cfg := Config{Shards: 1, Eps: 0.25, Delta: 0.05, N: 1 << 16, Seed: 1, FlipBudget: 128}.withDefaults()
	fill := map[string]int{"kmv": 20000, "countsketch": 20000}
	// A KMV is full only once F0 has reached its k, some sixty flips in: a
	// dense ensemble must outlast that for its trailing copies to be seen
	// full at the drain.
	budget := map[string]int{"kmv": 256}
	widenFeed := map[string]int{"f2": core.PendingCap, "countsketch": core.PendingCap}
	batch := make([]sketch.Update, 256)
	cells := 0
	for name := range bases {
		for _, policy := range Policies() {
			for _, model := range []TenantSpec{{}, {Model: "turnstile"}, {Model: "bounded_deletion", Alpha: 4}} {
				sp, ts, err := resolve(TenantSpec{Sketch: name, Policy: policy, Model: model.Model, Alpha: model.Alpha, FlipBudget: budget[name]}, cfg)
				if err != nil {
					continue // not a hostable cell; TestRegistryConformance classifies these
				}
				cells++
				est := sp.factory(ts)(7)
				peak := est.SpaceBytes()
				if policy == "switching" {
					// A first drain's worth of zero updates to distinct items
					// (a dense buffer drains at PendingCap of them), which move
					// no estimate but kmv's and so spend no flip but kmv's,
					// builds every copy.
					for fed := 0; fed < core.PendingCap; fed += len(batch) {
						for i := range batch {
							batch[i] = sketch.Update{Item: uint64(fed + i)}
						}
						sketch.ApplyBatch(est, batch)
						peak = max(peak, est.SpaceBytes())
					}
				}
				for fed := 0; fed < fill[name]; fed += len(batch) {
					for i := range batch {
						batch[i] = sketch.Update{Item: uint64(fed + i), Delta: 1}
					}
					sketch.ApplyBatch(est, batch)
					peak = max(peak, est.SpaceBytes())
				}
				if proj := sp.bytes(ts); (name == "f2" || name == "countsketch") && float64(peak) > proj {
					t.Errorf("%s model=%s: narrow build peaks at %d bytes, above its projection %.0f",
						sp.Display(), ts.Model, peak, proj)
				}
				// One 2³¹ delta, then a lag buffer of unit updates so the
				// drain carries it to the trailing copies.
				est.Update(1, 1<<31)
				peak = max(peak, est.SpaceBytes())
				for i := range batch {
					batch[i] = sketch.Update{Item: 1, Delta: 1}
				}
				for fed := 0; fed < widenFeed[name]; fed += len(batch) {
					sketch.ApplyBatch(est, batch)
					peak = max(peak, est.SpaceBytes())
				}
				lo, hi := 0.5, 2.0
				if name == "kmv" && policy != "switching" {
					// 8 bytes a minimum and nothing per key to estimate; a
					// dense ensemble has shed copies by the time a KMV fills.
					lo, hi = 0.95, 1.05
				}
				if ratio := sp.bytes(ts) / float64(peak); ratio < lo || ratio > hi {
					t.Errorf("%s model=%s: projected %.0f bytes, built estimator peaks at %d (ratio %.2f, want within [%.2f, %.2f])",
						sp.Display(), ts.Model, sp.bytes(ts), peak, ratio, lo, hi)
				}
			}
		}
	}
	if cells < 21 {
		t.Errorf("only %d cells resolved, want the 13 insertion cells and at least 8 signed ones", cells)
	}
}

// TestRingShardSpaceWithinProjection: a countsketch+ring shard at the
// benchmark's sizing, its counters widened by one 2³¹ delta and its pools
// filled by distinct items, publishes no more space than its spec projects,
// before and after every full ring drain: the projection prices the ring's
// lag buffer (core.PendingCap slots, their coalesced twin and the
// coalescer's index) beside the sketches.
func TestRingShardSpaceWithinProjection(t *testing.T) {
	cfg := Config{Shards: 1, Eps: 0.3, Delta: 0.05, N: 1 << 20, Seed: 7}.withDefaults()
	sp, ts, err := resolve(TenantSpec{Sketch: "countsketch", Policy: "ring"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(sp.engineConfig(ts, 7))
	defer eng.Close()
	proj := sp.bytes(ts)
	eng.Apply([]engine.Update{{Item: 1 << 40, Delta: 1 << 31}})
	batch, peak := make([]engine.Update, 512), 0
	for fed := 0; fed < 3*core.PendingCap; fed += len(batch) {
		for i := range batch {
			batch[i] = engine.Update{Item: uint64(fed + i), Delta: 1}
		}
		eng.Apply(batch)
		eng.Flush()
		peak = max(peak, eng.Read().SpaceBytes)
	}
	t.Logf("peak %d projected %.0f ratio %.3f", peak, proj, float64(peak)/proj)
	if float64(peak) > proj {
		t.Errorf("published space peaks at %d bytes, above the projected %.0f", peak, proj)
	}
}

// TestCreateJournalFailureIs500: a declaration the log cannot take is the
// disk's failure, not a malformed spec — 500 as on the update and delete
// paths, no tenant listed, and its engine's workers stopped.
func TestCreateJournalFailureIs500(t *testing.T) {
	srv, err := Open(Config{Shards: 2, DataDir: t.TempDir(), Fsync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	do := requester(t, hs)
	if code, body := do(http.MethodGet, "/v1/stats", nil); code != 200 {
		t.Fatalf("stats: HTTP %d: %s", code, body)
	}
	idle := runtime.NumGoroutine() // the keep-alive connection's goroutines included
	if err := srv.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if code, body := do(http.MethodPost, "/v2/keys", []byte(`{"key":"k","spec":{"sketch":"kmv"}}`)); code != http.StatusInternalServerError {
		t.Errorf("create with the log closed: HTTP %d (%s), want 500", code, body)
	}
	var st StatsResponse
	if code, body := do(http.MethodGet, "/v1/stats", nil); code != 200 || json.Unmarshal(body, &st) != nil || st.Keys != 0 || len(st.Tenants) != 0 {
		t.Errorf("stats after the refused create: HTTP %d, %s", code, body)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > idle; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the refused create: its engine was left running", runtime.NumGoroutine(), idle)
		}
	}
}

// TestUpdateJournalFailureAppliesNothing: a batch the log cannot take is a
// 500 under either codec and never reaches the engine, so the live state
// holds nothing recovery would not and a resent batch counts once.
func TestUpdateJournalFailureAppliesNothing(t *testing.T) {
	srv, err := Open(Config{Shards: 2, DataDir: t.TempDir(), Fsync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	do := requester(t, hs)
	if code, body := do(http.MethodPost, "/v2/keys", []byte(`{"key":"k","spec":{"sketch":"kmv"}}`)); code != 200 {
		t.Fatalf("create: HTTP %d: %s", code, body)
	}
	if code, body := do(http.MethodPost, "/v1/update?key=k", []byte(`{"updates":[{"item":1,"delta":1},{"item":2,"delta":1}]}`)); code != 200 {
		t.Fatalf("update: HTTP %d: %s", code, body)
	}
	// The estimate flushes, so the stats read after it is exact.
	state := func() (EstimateResponse, StatsResponse) {
		var e EstimateResponse
		var st StatsResponse
		if code, body := do(http.MethodGet, "/v1/estimate?key=k", nil); code != 200 || json.Unmarshal(body, &e) != nil {
			t.Fatalf("estimate: HTTP %d: %s", code, body)
		}
		if code, body := do(http.MethodGet, "/v1/stats", nil); code != 200 || json.Unmarshal(body, &st) != nil || len(st.Tenants) != 1 {
			t.Fatalf("stats: HTTP %d: %s", code, body)
		}
		return e, st
	}
	est, st := state()
	if err := srv.wal.Close(); err != nil {
		t.Fatal(err)
	}
	for _, req := range []struct{ codec, path, ct string }{
		{"json", "/v1/update?key=k", ""},
		{"frame", "/v2/update?key=k", wire.ContentType},
	} {
		us := []wire.Update{{Item: 3, Delta: 1}, {Item: 4, Delta: 1}, {Item: 5, Delta: 1}}
		body := []byte(`{"updates":[{"item":3,"delta":1},{"item":4,"delta":1},{"item":5,"delta":1}]}`)
		if req.ct != "" {
			body = wire.AppendUpdates(nil, us)
		}
		if w := poolReq(srv.Handler(), http.MethodPost, req.path, body, req.ct); w.Code != http.StatusInternalServerError {
			t.Errorf("%s update with the log closed: HTTP %d (%s), want 500", req.codec, w.Code, w.Body.Bytes())
		}
		if est2, st2 := state(); est2.Estimate != est.Estimate || st2.Tenants[0].Mass != st.Tenants[0].Mass {
			t.Errorf("%s: estimate %v → %v, mass %d → %d across a batch the log refused; want both unchanged",
				req.codec, est.Estimate, est2.Estimate, st.Tenants[0].Mass, st2.Tenants[0].Mass)
		}
	}
}

// TestUpdateToReplacedTenantIs410: a batch that resolved its tenant before a
// DELETE and a re-declare of the key answers 410 with nothing journaled or
// applied: neither the deleted tenant nor the new one under the same key,
// live or recovered, holds any of it.
func TestUpdateToReplacedTenantIs410(t *testing.T) {
	cfg := Config{Shards: 2, DataDir: t.TempDir(), Fsync: "none"}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	h := srv.Handler()
	declare(t, srv, "k", "kmv")
	old := srv.lookup("k")
	if w := poolReq(h, http.MethodDelete, "/v1/keys?key=k", nil, ""); w.Code != http.StatusOK {
		t.Fatalf("delete: HTTP %d: %s", w.Code, w.Body.Bytes())
	}
	declare(t, srv, "k", "kmv")
	w := httptest.NewRecorder()
	srv.applyUpdates(w, old, []wire.Update{{Item: 1, Delta: 1}, {Item: 2, Delta: 1}})
	var reply map[string]any
	if w.Code != http.StatusGone || json.Unmarshal(w.Body.Bytes(), &reply) != nil || len(reply) != 1 || reply["error"] == nil {
		t.Fatalf("batch to the deleted tenant: HTTP %d %s, want 410 {\"error\": …}", w.Code, w.Body.Bytes())
	}
	cfg.DataDir = waltest.Crash(t, cfg.DataDir)
	recovered, err := Open(cfg) // crash: the log alone
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Drain()
	for name, s := range map[string]*Server{"live": srv, "recovered": recovered} {
		if k := s.lookup("k"); k.eng.Estimate() != 0 || k.mass.Load() != 0 {
			t.Errorf("%s re-declared tenant: estimate %v, mass %d; want the refused batch nowhere", name, k.eng.Estimate(), k.mass.Load())
		}
	}
	if old.eng.Estimate() != 0 {
		t.Errorf("deleted tenant's engine took the refused batch: estimate %v", old.eng.Estimate())
	}
}

// TestAdmitByProjectedState: the product cap binds untrusted specs only. A
// stored or shipped spec above it still resolves — refusing one on reboot
// would strand acknowledged data — and resolving builds nothing either way.
func TestAdmitByProjectedState(t *testing.T) {
	cfg := Config{}.withDefaults()
	for _, raw := range []TenantSpec{
		{Sketch: "f2", Policy: "none", Eps: 1e-5},
		{Sketch: "f2", Policy: "none", Eps: 1e-9}, // 12/ε² overflows int: refused before any sizing call
		{Sketch: "f2", Policy: "switching", FlipBudget: MaxTenantFlipBudget},
		{Sketch: "kmv", Policy: "ring", Eps: 0.001, Shards: MaxTenantShards},
	} {
		if _, _, err := resolve(raw, cfg); err == nil || !strings.Contains(err.Error(), "tenant spec: projected state") {
			t.Errorf("resolve(%+v): err = %v, want a projected-state refusal", raw, err)
		}
		if sp, _, err := resolveTrusted(raw, cfg); err != nil || sp.factory == nil {
			t.Errorf("resolveTrusted(%+v): %v; a stored spec must resolve above the cap", raw, err)
		}
	}
	// The largest cell anything in the repository creates stays admissible.
	if _, _, err := resolve(TenantSpec{Sketch: "f2", Policy: "ring", Eps: 0.1}, cfg); err != nil {
		t.Errorf("f2+ring at ε = 0.1 (2.97 GB): %v", err)
	}
}

// FuzzTenantSpecDecode drives the POST /v2/keys parsing path: whatever
// the bytes, decoding either fails cleanly or yields a request whose
// resolved spec satisfies every validation invariant.
func FuzzTenantSpecDecode(f *testing.F) {
	f.Add([]byte(`{"key":"k","spec":{"sketch":"f2","policy":"ring","eps":0.1}}`))
	f.Add([]byte(`{"key":"k","spec":{"eps":null}}`))
	f.Add([]byte(`{"key":"k","spec":{"sketch":"f2","eps":"NaN"}}`))
	f.Add([]byte(`{"key":"k","spec":{"sketch":"f2","policy":"ring","flip_budget":-1}}`))
	f.Add([]byte(`{"key":"k","spec":{"sketch":"kmv","n":"18446744073709551615","shards":9999}}`))
	f.Add([]byte(`{"spec":{}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"key":"k","spec":{"sketch":"f2","policy":"paths","model":"turnstile","lambda":64}}`))
	f.Add([]byte(`{"key":"k","spec":{"sketch":"f2","model":"bounded_deletion","alpha":-4}}`))
	f.Add([]byte(`{"key":"k","spec":{"sketch":"f2","model":"bounded_deletion","alpha":"NaN"}}`))
	f.Add([]byte(`{"key":"k","spec":{"sketch":"f2","policy":"switching","model":"turnstile","lambda":0,"flip_budget":8}}`))
	f.Add([]byte(`{"key":"k","spec":{"sketch":"f2","model":"insertion","alpha":2}}`))
	f.Add([]byte(`{"key":"k","spec":{"sketch":"kmv","model":"turnstile"}}`))
	f.Add([]byte(`{"key":"k","spec":{"sketch":"f2","policy":"none","eps":0.00001}}`))
	f.Add([]byte(`{"key":"k","spec":{"sketch":"cc","policy":"switching","eps":1e-9,"flip_budget":1048576,"shards":64}}`))
	cfg := Config{}.withDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeCreateTenant(data)
		if err != nil {
			return
		}
		if req.Key == "" {
			t.Fatalf("decodeCreateTenant accepted a missing key: %q", data)
		}
		sp, ts, err := resolve(req.Spec, cfg)
		if err != nil {
			return // rejected specs are fine; they must not panic
		}
		if math.IsNaN(ts.Eps) || ts.Eps <= 0 || ts.Eps >= 1 {
			t.Fatalf("resolved eps %v escaped validation (input %q)", ts.Eps, data)
		}
		if math.IsNaN(ts.Delta) || ts.Delta <= 0 || ts.Delta >= 1 {
			t.Fatalf("resolved delta %v escaped validation (input %q)", ts.Delta, data)
		}
		if ts.Shards < 1 || ts.Shards > MaxTenantShards {
			t.Fatalf("resolved shards %d escaped validation (input %q)", ts.Shards, data)
		}
		if ts.FlipBudget < 1 || ts.FlipBudget > MaxTenantFlipBudget {
			t.Fatalf("resolved flip budget %d escaped validation (input %q)", ts.FlipBudget, data)
		}
		switch ts.Model {
		case "insertion":
			if ts.Lambda != 0 || ts.Alpha != 0 {
				t.Fatalf("insertion tenant resolved with λ=%d α=%v (input %q)", ts.Lambda, ts.Alpha, data)
			}
			if sp.model.Kind != 0 {
				t.Fatalf("insertion tenant resolved to model kind %v (input %q)", sp.model.Kind, data)
			}
		case "turnstile":
			if ts.Lambda < 1 || ts.Lambda > MaxTenantFlipBudget || ts.Lambda != ts.FlipBudget {
				t.Fatalf("turnstile tenant resolved with λ=%d budget=%d (input %q)", ts.Lambda, ts.FlipBudget, data)
			}
			if !sp.signed {
				t.Fatalf("turnstile tenant resolved unsigned (input %q)", data)
			}
		case "bounded_deletion":
			if math.IsNaN(ts.Alpha) || math.IsInf(ts.Alpha, 0) || ts.Alpha < 1 || ts.Alpha > MaxTenantAlpha {
				t.Fatalf("resolved α %v escaped validation (input %q)", ts.Alpha, data)
			}
			if !sp.signed {
				t.Fatalf("bounded-deletion tenant resolved unsigned (input %q)", data)
			}
		default:
			t.Fatalf("resolved model %q escaped validation (input %q)", ts.Model, data)
		}
		if sp.Name != ts.Sketch || sp.Policy != ts.Policy {
			t.Fatalf("spec/tenant-spec identity mismatch: %s+%s vs %s+%s", sp.Name, sp.Policy, ts.Sketch, ts.Policy)
		}
		if got := float64(ts.Shards) * sp.bytes(ts); !(got > 0 && got <= MaxTenantStateBytes) {
			t.Fatalf("admitted a tenant projected at %v bytes (input %q)", got, data)
		}
	})
}

// FuzzQueryDecode drives the JSON POST /v2/query parsing path: decoded
// batches must have a key, a bounded non-zero length, only known kinds,
// and in-range topk sizes; a field the body's shape does not have, or data
// after it, is refused. A body it accepts is accepted as a frame too:
// wire.DecodeQuery returns what wire.AppendQuery wrote, unchanged, and the
// frame check passes it.
func FuzzQueryDecode(f *testing.F) {
	f.Add([]byte(`{"key":"k","queries":[{"kind":"estimate"},{"kind":"point","item":"123"},{"kind":"topk","k":10}]}`))
	f.Add([]byte(`{"key":"k","queries":[]}`))
	f.Add([]byte(`{"key":"k","queries":[{"kind":"drop tables"}]}`))
	f.Add([]byte(`{"key":"k","queries":[{"kind":"topk","k":-1}]}`))
	f.Add([]byte(`{"queries":[{"kind":"estimate"}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"key":"k","queries":[{"kind":"point","items":[1,2,3,50]}]}`))
	f.Add([]byte(`{"key":"k","queries":[{"kind":"estimate"}],"limit":3}`))
	f.Add([]byte(`{"key":"k","queries":[{"kind":"estimate"}]} {"key":"k","queries":[{"kind":"estimate"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, req, err := DecodeQueryRequest(data)
		if err != nil {
			return
		}
		if req.Key == "" {
			t.Fatalf("DecodeQueryRequest accepted a missing key: %q", data)
		}
		if len(req.Queries) == 0 || len(req.Queries) > maxQueryBatch {
			t.Fatalf("DecodeQueryRequest accepted a batch of %d queries: %q", len(req.Queries), data)
		}
		for _, q := range req.Queries {
			switch q.Kind {
			case wire.KindEstimate, wire.KindPoint:
			case wire.KindTopK:
				if q.K < 1 || q.K > maxTopK {
					t.Fatalf("DecodeQueryRequest accepted topk k=%d: %q", q.K, data)
				}
			default:
				t.Fatalf("DecodeQueryRequest accepted kind %d: %q", q.Kind, data)
			}
		}
		var back wire.QueryRequest
		if err := wire.DecodeQuery(wire.AppendQuery(nil, &req), &back); err != nil {
			t.Fatalf("the frame of an accepted body does not decode: %v (body %q)", err, data)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("the frame of %q decodes to %+v, want %+v", data, back, req)
		}
		if err := validateQuery(&back); err != nil {
			t.Fatalf("the frame of an accepted body is refused: %v (body %q)", err, data)
		}
	})
}
