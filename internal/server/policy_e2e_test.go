package server_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/stream"
)

// TestPolicyMatrixOverHTTP exercises the sketch × policy matrix through
// the real HTTP API: tenants for every robust policy over f2 — including
// policy=paths, which was unreachable from sketchd before the policy
// layer — ingest one stream, every estimate lands within the acceptance
// envelope of the true L2 norm, and /v1/stats reports each tenant's
// policy and flip-budget state.
func TestPolicyMatrixOverHTTP(t *testing.T) {
	const eps = 0.25
	cfg := server.Config{Shards: 2, Eps: eps, Delta: 0.05, N: 1 << 16, Seed: 21, MaxKeys: 8, FlipBudget: 128}
	_, c := boot(t, cfg)
	ctx := context.Background()

	policies := []string{"none", "switching", "ring", "paths"}
	for _, pol := range policies {
		if _, err := c.CreateTenant(ctx, "f2-"+pol, client.TenantSpec{Sketch: "f2", Policy: pol}); err != nil {
			t.Fatalf("create f2+%s: %v", pol, err)
		}
	}

	gen := stream.NewZipf(1<<10, 12000, 1.2, 3)
	truth := stream.NewFreq()
	batch := make([]client.Update, 0, 512)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		for _, pol := range policies {
			if err := c.Update(ctx, "f2-"+pol, batch); err != nil {
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

	for _, pol := range policies {
		got, err := c.Estimate(ctx, "f2-"+pol)
		if err != nil {
			t.Fatal(err)
		}
		// The static tenant estimates the F2 moment, the robust ones the
		// L2 norm (the policy layer's norm semantics).
		want := truth.L2()
		if pol == "none" {
			want = truth.Fp(2)
		}
		// 1.5× ε tolerance: verify the regime without δ flakes.
		if re := relErr(got, want); re > 1.5*eps {
			t.Errorf("f2+%s estimate %v vs truth %v: rel err %.3f", pol, got, want, re)
		}
	}

	// Stats expose the policy dimension and the flip budget.
	for _, pol := range policies {
		ks, err := c.KeyStats(ctx, "f2-"+pol)
		if err != nil {
			t.Fatal(err)
		}
		if ks.Sketch != "f2" || ks.Policy != pol {
			t.Errorf("stats for f2+%s report %s+%s", pol, ks.Sketch, ks.Policy)
		}
		if pol == "none" {
			if ks.Robustness != nil {
				t.Errorf("static tenant reports robustness %+v", ks.Robustness)
			}
			continue
		}
		r := ks.Robustness
		if r == nil {
			t.Fatalf("robust tenant f2+%s reports no robustness state", pol)
		}
		if r.Policy != pol {
			t.Errorf("f2+%s robustness names policy %q", pol, r.Policy)
		}
		if r.Copies == 0 || r.Switches == 0 {
			t.Errorf("f2+%s robustness has zero copies or switches after ingest: %+v", pol, r)
		}
		switch pol {
		case "ring":
			if r.Budget != -1 || r.Remaining != -1 || r.Exhausted {
				t.Errorf("ring budget should be unbounded: %+v", r)
			}
		case "switching", "paths":
			// A robust spec that names no shards runs one ensemble, so the
			// tenant's budget is one FlipBudget, not one per server shard.
			if r.Budget != cfg.FlipBudget {
				t.Errorf("f2+%s budget %d, want %d", pol, r.Budget, cfg.FlipBudget)
			}
			if r.Remaining != r.Budget-r.Switches || r.Exhausted {
				t.Errorf("f2+%s budget accounting off: %+v", pol, r)
			}
		}
	}

	// Robust tenants refuse snapshots (their ensembles are not
	// linear-mergeable), naming the cell — the base sketch alone is
	// serializable; the static tenant still serves them.
	for _, pol := range policies[1:] {
		_, err := c.Snapshot(ctx, "f2-"+pol)
		if want := `sketch type "f2+` + pol + `" is not serializable`; client.StatusCode(err) != 501 || !strings.Contains(err.Error(), want) {
			t.Errorf("snapshot of the %s tenant: %v, want 501 %s", pol, err, want)
		}
	}
	if _, err := c.Snapshot(ctx, "f2-none"); err != nil {
		t.Errorf("snapshot of the static tenant: %v", err)
	}
}

// TestPolicyConflictsOverHTTP pins the declaration contract over the wire:
// re-declaring a tenant's own cell is idempotent, a different cell under
// the same key fails with 409, and a spec naming no registry sketch, an
// invalid cell or an unknown policy fails with an explanatory 400.
func TestPolicyConflictsOverHTTP(t *testing.T) {
	cfg := server.Config{Shards: 1, Eps: 0.4, Delta: 0.05, N: 1 << 16, Seed: 5, MaxKeys: 8}
	_, c := boot(t, cfg)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		ks, err := c.CreateTenant(ctx, "norms", client.TenantSpec{Sketch: "f2", Policy: "ring"})
		if err != nil {
			t.Fatalf("declaration %d of f2+ring: %v", i, err)
		}
		if ks.Sketch != "f2" || ks.Policy != "ring" || ks.Robustness == nil {
			t.Errorf("f2+ring tenant reports %s+%s (robustness %v)", ks.Sketch, ks.Policy, ks.Robustness)
		}
	}

	// Another cell under an existing key is a 409, an empty policy meaning
	// none included.
	for _, policy := range []string{"paths", ""} {
		if _, err := c.CreateTenant(ctx, "norms", client.TenantSpec{Sketch: "f2", Policy: policy}); client.StatusCode(err) != 409 {
			t.Errorf("f2 with policy %q over an f2+ring tenant: %v, want 409", policy, err)
		}
	}
	// Ring over entropy is invalid (non-monotone statistic).
	if _, err := c.CreateTenant(ctx, "x", client.TenantSpec{Sketch: "cc", Policy: "ring"}); client.StatusCode(err) != 400 {
		t.Errorf("cc+ring: %v, want 400", err)
	}
	// A spec must name a registry sketch — there is no default cell and no
	// alias — whether the key is new or taken; the 400 lists the registry.
	for _, key := range []string{"x", "norms"} {
		for _, name := range []string{"no-such", "", "robust-f2"} {
			_, err := c.CreateTenant(ctx, key, client.TenantSpec{Sketch: name})
			if want := "(have: cc, countsketch, f2, kmv)"; client.StatusCode(err) != 400 || !strings.Contains(err.Error(), want) {
				t.Errorf("sketch %q for key %q: %v, want 400 listing %s", name, key, err, want)
			}
		}
	}
	if _, err := c.CreateTenant(ctx, "x", client.TenantSpec{Sketch: "f2", Policy: "no-such"}); client.StatusCode(err) != 400 {
		t.Errorf("unknown policy: %v, want 400", err)
	}

	// Robust entropy is not hosted: cc under switching or paths is a 400
	// that says why.
	for _, policy := range []string{"switching", "paths"} {
		_, err := c.CreateTenant(ctx, "ent", client.TenantSpec{Sketch: "cc", Policy: policy})
		if client.StatusCode(err) != 400 || !strings.Contains(err.Error(), "robust entropy is not hosted") {
			t.Errorf("cc+%s: %v, want a 400 naming the reason", policy, err)
		}
	}
}

// TestSpentTenantSaysSoAndKeepsAnswering pins what a dense-switching tenant
// does once its stream has used more flips than it was sized for: /v1/stats
// and the robustness block of every /v2/query answer, JSON and binary, say
// exhausted with nothing remaining and one copy live, and that last copy
// goes on answering — still accurate on this oblivious stream, with no
// guarantee left against an adaptive one.
func TestSpentTenantSaysSoAndKeepsAnswering(t *testing.T) {
	const eps = 0.3
	srv := server.New(server.Config{Eps: eps, Delta: 0.05, N: 1 << 16, Seed: 11, MaxKeys: 4})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Drain)
	jc := client.New(hs.URL, hs.Client(), client.WithCodec(client.CodecJSON))
	bc := client.New(hs.URL, hs.Client(), client.WithCodec(client.CodecBinary))
	ctx := context.Background()

	if _, err := jc.CreateTenant(ctx, "spent", client.TenantSpec{Sketch: "f2", Policy: "switching", FlipBudget: 4, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	truth := stream.NewFreq()
	feed := func(from, to uint64) {
		t.Helper()
		var ups []client.Update
		for i := from; i < to; i++ {
			u := stream.Update{Item: i, Delta: 1}
			truth.Apply(u)
			ups = append(ups, client.Update{Item: u.Item, Delta: u.Delta})
		}
		if err := bc.Update(ctx, "spent", ups); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) float64 {
		t.Helper()
		jresp, jerr := jc.Query(ctx, "spent", []client.Query{{Kind: server.QueryEstimate}})
		bresp, berr := bc.Query(ctx, "spent", []client.Query{{Kind: server.QueryEstimate}})
		if jerr != nil || berr != nil {
			t.Fatalf("%s: query: json %v, frame %v", when, jerr, berr)
		}
		st, err := jc.KeyStats(ctx, "spent") // after a query: stats read what the last flush published
		if err != nil {
			t.Fatal(err)
		}
		for where, r := range map[string]*server.RobustnessStats{"/v1/stats": st.Robustness, "/v2/query json": jresp.Robustness, "/v2/query frame": bresp.Robustness} {
			if r == nil || !r.Exhausted || r.Remaining != 0 || r.Copies != 1 || r.Budget != 4 || r.Switches <= 4 {
				t.Errorf("%s: %s reports %+v, want exhausted, remaining 0, copies 1 of budget 4", when, where, r)
			}
		}
		got := jresp.Answers[0].Value
		if bresp.Answers[0].Value != got || relErr(got, truth.L2()) > eps {
			t.Errorf("%s: estimate json %v, frame %v, true norm %v", when, got, bresp.Answers[0].Value, truth.L2())
		}
		return got
	}
	feed(0, 200) // the norm climbs to √200: some twenty roundings at ε/2, of a budget of four
	first := check("past the budget")
	feed(200, 1000)
	if later := check("800 updates later"); later <= first {
		t.Errorf("the spent tenant's estimate stayed at %v while the norm went from √200 to √1000", later)
	}
}
