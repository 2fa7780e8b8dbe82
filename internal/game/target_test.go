package game_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/f0"
	"repro/internal/game"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// exactFactory builds the exact F0 counter, whose estimates are
// deterministic — the reference point for target equivalence.
func exactFactory(int64) sketch.Estimator { return f0.NewExact() }

// TestTargetsAgreeOnExactF0 runs the same oblivious stream through all
// three Target implementations over an exact F0 estimator and requires
// identical per-round responses: the production wrappers (sharding,
// batching, HTTP) must be estimate-transparent.
func TestTargetsAgreeOnExactF0(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 4, Batch: 8, Factory: exactFactory, Seed: 1})
	defer eng.Close()

	// A sketchd keyspace needs a registry type; the registry has no exact
	// estimator, so the HTTP target is exercised separately below. Here:
	// estimator vs engine.
	targets := map[string]game.Target{
		"estimator": game.NewEstimatorTarget(f0.NewExact()),
		"engine":    game.NewEngineTarget(eng),
	}
	results := map[string]game.Result{}
	for name, tgt := range targets {
		res, err := game.RunTarget(tgt,
			game.FromGenerator(stream.NewUniform(256, 1500, 7)),
			(*stream.Freq).F0, game.RelCheck(1e-9), game.Config{Record: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Broken {
			t.Errorf("%s: exact estimator broke at %d (est %v, truth %v)",
				name, res.BrokenAt, res.BrokenEst, res.BrokenTru)
		}
		results[name] = res
	}
	est, eng2 := results["estimator"], results["engine"]
	if est.Steps != eng2.Steps {
		t.Fatalf("step counts differ: %d vs %d", est.Steps, eng2.Steps)
	}
	for i := range est.Estimates {
		if est.Estimates[i] != eng2.Estimates[i] {
			t.Fatalf("round %d: estimator answered %v, engine answered %v",
				i+1, est.Estimates[i], eng2.Estimates[i])
		}
	}
}

// TestClientTargetFeedbackLoop verifies the adaptive feedback loop is
// wired through HTTP: the responses the adversary observes must be
// exactly the estimates the server published each round (whatever their
// values — a robust keyspace rounds them), and a kmv+ring tenant must
// track an oblivious distinct ramp within ε.
func TestClientTargetFeedbackLoop(t *testing.T) {
	srv := server.New(server.Config{Shards: 2, Eps: 0.3, Delta: 0.05, N: 1 << 16, Seed: 3})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Drain()
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "loop", client.TenantSpec{Sketch: "kmv", Policy: "ring"}); err != nil {
		t.Fatal(err)
	}
	tgt := client.NewGameTarget(ctx, c, "loop")

	var observed []float64
	adv := game.AdversaryFunc(func(last float64, step int) (stream.Update, bool) {
		if step > 0 {
			observed = append(observed, last)
		}
		if step >= 40 {
			return stream.Update{}, false
		}
		return stream.Update{Item: uint64(step), Delta: 1}, true
	})
	res, err := game.RunTarget(tgt, adv, (*stream.Freq).F0, game.RelCheck(0.5),
		game.Config{Record: true, Warmup: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 40 {
		t.Fatalf("Steps = %d, want 40", res.Steps)
	}
	if res.Broken {
		t.Errorf("kmv+ring broke on an oblivious distinct ramp at %d (est %v, truth %v)",
			res.BrokenAt, res.BrokenEst, res.BrokenTru)
	}
	if len(observed) != 40 {
		t.Fatalf("adversary observed %d responses, want 40", len(observed))
	}
	for i, got := range observed {
		if want := res.Estimates[i]; got != want {
			t.Errorf("round %d: adversary saw %v, server published %v", i+1, got, want)
		}
	}
}

// TestEngineTargetClosedEngineAborts requires a campaign against a closed
// engine to abort with an error, not a panic and not a silently wrong
// result.
func TestEngineTargetClosedEngineAborts(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 2, Factory: exactFactory, Seed: 1})
	eng.Close()
	_, err := game.RunTarget(game.NewEngineTarget(eng),
		game.FromGenerator(stream.NewUniform(16, 100, 1)),
		(*stream.Freq).F0, game.RelCheck(0.5), game.Config{})
	if err == nil {
		t.Fatal("campaign against a closed engine reported no error")
	}
}

// TestClientTargetServerErrorAborts points the HTTP target at a drained
// server: the first update must surface the 503 as a campaign error.
func TestClientTargetServerErrorAborts(t *testing.T) {
	srv := server.New(server.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	srv.Drain()
	tgt := client.NewGameTarget(context.Background(), client.New(hs.URL, hs.Client()), "gone")
	_, err := game.RunTarget(tgt,
		game.FromGenerator(stream.NewUniform(16, 10, 1)),
		(*stream.Freq).F0, game.RelCheck(0.5), game.Config{})
	if err == nil {
		t.Fatal("campaign against a draining server reported no error")
	}
}
