package repro

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/adversary"
	"repro/internal/client"
	"repro/internal/fp"
	"repro/internal/game"
	"repro/internal/server"
	"repro/internal/stream"
)

// TestAdaptiveAMSCampaignOverHTTP is the headline end-to-end regression
// for the paper's whole claim, run against the production stack instead
// of a bare estimator: Algorithm 3 (the adaptive AMS attack) plays the
// full query→adapt→update loop over loopback HTTP — every round is a
// POST /v1/update followed by a GET /v1/estimate against a sketchd
// tenant — and
//
//   - drives the non-robust linear "f2" sketch outside 1±ε within a few
//     hundred rounds, while
//   - one robust guard tenant per policy family — f2+ring, f2+switching
//     and f2+paths — fed the exact
//     same adversarial stream with the same per-round query cadence,
//     stays within ε of the true L2 norm for the entire campaign.
//
// Ground truth is tracked client-side only; none of the servers ever see
// it.
func TestAdaptiveAMSCampaignOverHTTP(t *testing.T) {
	const eps = 0.3 // the 1±ε envelope all verdicts use

	// Victim: single-shard f2 tenant, so the adversary faces exactly one
	// static linear sketch — the paper's Theorem 9.1 setting.
	victimSrv := server.New(server.Config{Shards: 1, Eps: 0.5, Delta: 0.05, N: 1 << 16, Seed: 11})
	victimHS := httptest.NewServer(victimSrv.Handler())
	defer victimHS.Close()
	defer victimSrv.Drain()
	vc := client.New(victimHS.URL, victimHS.Client())

	// Guards: one robust counterpart per policy family, all on a second
	// server sized at ε/2 so their guarantees cover the ε-check with
	// margin. FlipBudget 256 gives the bounded-budget policies (switching,
	// paths) ample headroom for the campaign's published-output changes.
	guardSrv := server.New(server.Config{Shards: 1, Eps: eps / 2, Delta: 0.05, N: 1 << 16, Seed: 12, FlipBudget: 256})
	guardHS := httptest.NewServer(guardSrv.Handler())
	defer guardHS.Close()
	defer guardSrv.Drain()
	gc := client.New(guardHS.URL, guardHS.Client())

	ctx := context.Background()
	if _, err := vc.CreateTenant(ctx, "victim", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	guards := []struct {
		key, sketch, policy string
		tgt                 game.Target
	}{
		{key: "guard-ring", sketch: "f2", policy: "ring"},
		{key: "guard-switching", sketch: "f2", policy: "switching"},
		{key: "guard-paths", sketch: "f2", policy: "paths"},
	}
	for i := range guards {
		if _, err := gc.CreateTenant(ctx, guards[i].key, client.TenantSpec{Sketch: guards[i].sketch, Policy: guards[i].policy}); err != nil {
			t.Fatal(err)
		}
		guards[i].tgt = client.NewGameTarget(ctx, gc, guards[i].key)
	}
	victim := client.NewGameTarget(ctx, vc, "victim")

	// The attack is tuned to the victim's sketch size (t counters), which
	// a real adversary can read off the server's published ε.
	sizing := fp.SizeF2(0.5, 0.05)
	rows := sizing.Rows * sizing.Width
	adv := adversary.NewAMSAttack(rows, 4, 5)
	check := game.RelCheck(eps)

	const (
		maxSteps = 8000 // calibrated: the attack breaks f2 within ~300–1300 rounds
		warmup   = 16   // ε-rounding granularity dominates tiny truths
	)
	freq := stream.NewFreq()
	last := 0.0
	brokenAt := 0
	var brokenEst, brokenTruth float64
	for step := 0; step < maxSteps; step++ {
		u, ok := adv.Next(last, step)
		if !ok {
			break
		}
		// Every tenant ingests the same adversarial stream; only the
		// victim's responses feed the adversary.
		if err := victim.Update(u.Item, u.Delta); err != nil {
			t.Fatalf("victim update at round %d: %v", step+1, err)
		}
		for _, g := range guards {
			if err := g.tgt.Update(u.Item, u.Delta); err != nil {
				t.Fatalf("%s update at round %d: %v", g.key, step+1, err)
			}
		}
		freq.Apply(u)

		vEst, err := victim.Estimate()
		if err != nil {
			t.Fatalf("victim estimate at round %d: %v", step+1, err)
		}
		// Every robust tenant must hold at every single round of the
		// campaign, whichever transformation protects it.
		for _, g := range guards {
			gEst, err := g.tgt.Estimate()
			if err != nil {
				t.Fatalf("%s estimate at round %d: %v", g.key, step+1, err)
			}
			if step >= warmup && !check(gEst, freq.L2()) {
				t.Fatalf("%s left 1±%.2f at round %d: estimate %.2f, true L2 %.2f",
					g.key, eps, step+1, gEst, freq.L2())
			}
		}
		if brokenAt == 0 && step >= warmup && !check(vEst, freq.Fp(2)) {
			brokenAt = step + 1
			brokenEst, brokenTruth = vEst, freq.Fp(2)
			break // victim broken and every guard held the whole stream: done
		}
		last = vEst
	}
	if brokenAt == 0 {
		t.Fatalf("adaptive AMS attack failed to drive the static f2 tenant outside 1±%.2f in %d rounds", eps, maxSteps)
	}

	// The flip-budget telemetry the operators would watch: the bounded
	// policies consumed switches without exhausting.
	for _, g := range guards[1:] {
		ks, err := gc.KeyStats(ctx, g.key)
		if err != nil {
			t.Fatal(err)
		}
		if ks.Robustness == nil {
			t.Fatalf("%s reports no robustness state", g.key)
		}
		if ks.Robustness.Exhausted {
			t.Errorf("%s exhausted its flip budget mid-campaign (switches %d of %d) — raise FlipBudget",
				g.key, ks.Robustness.Switches, ks.Robustness.Budget)
		}
	}
	t.Logf("f2 tenant broken over HTTP at round %d (estimate %.1f vs true F2 %.1f); ring, switching and paths guards held within %.2f throughout",
		brokenAt, brokenEst, brokenTruth, eps)
}
