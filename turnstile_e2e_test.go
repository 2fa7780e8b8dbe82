package repro

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/adversary"
	"repro/internal/client"
	"repro/internal/game"
	"repro/internal/server"
	"repro/internal/stream"
)

// TestTurnstileModelCampaignOverHTTP is the end-to-end regression for the
// stream-model axis: a deletion-driven adaptive adversary (Pump) plays
// the full query→adapt→update loop over loopback HTTP, and
//
//   - a model=turnstile f2+paths tenant, whose declared λ covers the
//     trajectory (Theorem 1.6), stays inside its moment-error envelope
//     for the entire campaign, while
//   - the same stream is flatly rejected by an insertion-only tenant:
//     the first negative delta comes back as HTTP 400 with nothing
//     applied, because deletions void the insertion-only guarantee the
//     tenant was sized for.
//
// Ground truth is tracked client-side only; the server never sees it.
func TestTurnstileModelCampaignOverHTTP(t *testing.T) {
	const (
		eps   = 0.3
		steps = 1000
	)
	srv := server.New(server.Config{Shards: 1, Eps: eps, Delta: 0.05, N: 1 << 16, Seed: 23})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Drain()
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()

	// λ = steps: every update flips the statistic at most once, so the
	// emitted trajectory is a member of S_λ by construction.
	ks, err := c.CreateTenant(ctx, "turnstile", client.TenantSpec{
		Sketch: "f2", Policy: "paths", Model: "turnstile", Lambda: steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ks.Model != "turnstile" || ks.Spec == nil || ks.Spec.FlipBudget != steps {
		t.Fatalf("turnstile tenant resolved to model=%s spec=%+v, want model=turnstile with flip_budget=%d (λ is the budget)",
			ks.Model, ks.Spec, steps)
	}

	tgt := client.NewGameTarget(ctx, c, "turnstile")
	adv := adversary.NewPump(steps, math.Inf(1), 31)
	// The tenant publishes the moment ‖f‖₂²: its inner (1±ε₀) norm-scale
	// guarantee is ≈ (1±2ε₀) on the moment and the output rounding adds
	// ε/2, so the end-to-end envelope is wider than ε itself.
	res, err := game.RunTarget(tgt, adv, func(f *stream.Freq) float64 { return f.Fp(2) },
		game.RelCheck(0.45), game.Config{MaxSteps: steps, Warmup: 64})
	if err != nil {
		t.Fatalf("campaign aborted: %v", err)
	}
	if res.Broken {
		t.Fatalf("pump broke the turnstile tenant at round %d: estimate %.2f vs true F2 %.2f",
			res.BrokenAt, res.BrokenEst, res.BrokenTru)
	}
	if res.Steps != steps {
		t.Fatalf("campaign played %d rounds, want %d", res.Steps, steps)
	}
	// Deletions actually flowed: the engine's signed-mass telemetry saw
	// them, and total mass is below the deletion-free total.
	if ks, err = c.KeyStats(ctx, "turnstile"); err != nil {
		t.Fatal(err)
	}
	deleted := ks.DeletedMass
	if deleted == 0 {
		t.Error("campaign reported no deleted mass; the pump adversary should have deleted")
	}

	// The same stream against an insertion-only tenant: the first deletion
	// is a 400, nothing from the failing batch is applied, and the
	// estimate is untouched — the regression for the silent-corruption
	// behavior this PR removes (negative deltas used to be ingested into
	// tenants whose robustness sizing assumed they could not happen).
	if _, err := c.CreateTenant(ctx, "ins", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(ctx, "ins", 1, 1, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	before, err := c.Estimate(ctx, "ins")
	if err != nil {
		t.Fatal(err)
	}
	err = c.Update(ctx, "ins", []client.Update{{Item: 4, Delta: 2}, {Item: 1, Delta: -1}})
	if err == nil {
		t.Fatal("negative delta on an insertion-only tenant was accepted; want HTTP 400")
	}
	if code := client.StatusCode(err); code != 400 {
		t.Fatalf("negative delta rejected with HTTP %d (%v), want 400", code, err)
	}
	// The reject precedes ingest: the batch's first update, a valid
	// insertion, did not land either.
	after, err := c.Estimate(ctx, "ins")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("estimate moved %.2f → %.2f across a rejected batch; the reject must apply nothing", before, after)
	}
	if ks, err = c.KeyStats(ctx, "ins"); err != nil {
		t.Fatal(err)
	}
	if ks.Model != "insertion" || ks.DeletedMass != 0 {
		t.Fatalf("insertion tenant reports model=%s deleted_mass=%d, want insertion/0", ks.Model, ks.DeletedMass)
	}

	t.Logf("turnstile tenant held 1±0.45 on ‖f‖₂² for %d adversarial rounds (deleted mass %d); insertion-only tenant rejected the first deletion with 400",
		res.Steps, deleted)
}
