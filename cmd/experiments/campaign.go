package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"strings"

	"repro/internal/adversary"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/game"
	"repro/internal/hash"
	"repro/internal/robust"
	"repro/internal/server"
	"repro/internal/sketch"
)

// The campaign subcommand sweeps adversary × target × sketch × policy ×
// model: every adaptive strategy in internal/adversary plays the full
// query→adapt→update game against every layer of the production stack —
// bare estimator, sharded engine, and a sketchd tenant over loopback
// HTTP — for every requested sketch × robustness-policy × stream-model
// combination the server registry hosts, and the outcomes land in a JSON
// report. The expected picture, which the nightly CI run asserts on a
// fixed subset: adaptive attacks break the policy-free static
// combinations and bounce off the robust ones (switching, ring, paths
// alike), on every target; the deletion-driven pump adversary holds
// against turnstile and bounded-deletion cells sized for it — and the
// report's space/error columns let switching and paths be compared
// empirically under the same attack.
//
// Usage: go run ./cmd/experiments campaign -sketches f2,kmv -policies none,ring,paths -models insertion,turnstile -o report.json

// campaignResult is one swept combination.
type campaignResult struct {
	Adversary  string  `json:"adversary"`
	Target     string  `json:"target"`
	Sketch     string  `json:"sketch"`
	Policy     string  `json:"policy"`
	Model      string  `json:"model"`
	Robust     bool    `json:"robust"`
	Skipped    string  `json:"skipped,omitempty"`
	Steps      int     `json:"steps,omitempty"`
	Broken     bool    `json:"broken"`
	BrokenAt   int     `json:"broken_at,omitempty"`
	MaxRelErr  float64 `json:"max_rel_err"`
	SpaceBytes int     `json:"space_bytes,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// campaignReport is the emitted JSON document.
type campaignReport struct {
	Eps      float64          `json:"eps"`
	Steps    int              `json:"steps"`
	Shards   int              `json:"shards"`
	Policies []string         `json:"policies"`
	Models   []string         `json:"models"`
	Alpha    float64          `json:"alpha"`
	Results  []campaignResult `json:"results"`
}

// hashLeaker is the surface the seed-leakage adversary needs from its
// victim: KMV-style sketches expose their (leaked) hash function.
type hashLeaker interface {
	Hash() hash.Poly
}

// campaignTarget is one built system under test plus its teardown.
type campaignTarget struct {
	tgt game.Target
	// leak returns the victim's hash function if the target can leak one
	// (in-process and engine targets over KMV; nil over HTTP, where the
	// network boundary hides the seed — exactly why the seed-leak threat
	// model is about *local* state compromise).
	leak func() hashLeaker
	// space reports the system's working-state bytes, recorded in the
	// report so switching and paths can be compared on space under the
	// same attack.
	space func() int
	close func()
}

// campaignCombo is one (sketch, policy, model) cell of the sweep grid:
// the TenantSpec that declares it plus the resolved cell metadata.
type campaignCombo struct {
	ts   server.TenantSpec
	info server.Info
}

// resolveCombos expands the -sketches, -policies and -models flags into
// the swept (sketch, policy, model) cells: registry names cross with the
// policy and model lists, and "all" on any axis expands to the registry
// (skipping cells the policy/model layer rejects — cc×ring, ring under
// deletions, non-Fp sketches under non-insertion models). A grid with any
// expanded axis (an "all", or a multi-valued model list) skips its invalid
// cells; a fully explicit single invalid combination, or a sketch name the
// registry does not hold, exits loudly.
func resolveCombos(sketches, policies, models string, alpha float64) ([]campaignCombo, []string, []string) {
	policyList := splitList(policies)
	if policies == "all" {
		policyList = server.Policies()
	}
	modelList := splitList(models)
	if models == "all" {
		modelList = robust.ModelKinds()
	}
	var names []string
	if sketches == "all" {
		for _, info := range server.Types() { // already name-sorted
			names = append(names, info.Name)
		}
	} else {
		names = splitList(sketches)
	}
	// With more than one model requested the grid is a cross-product, so
	// structurally invalid cells are expected and skipped.
	expanded := sketches == "all" || policies == "all" || models == "all" || len(modelList) > 1
	specFor := func(sketch, policy, model string) server.TenantSpec {
		ts := server.TenantSpec{Sketch: sketch, Policy: policy, Model: model}
		if model == "bounded_deletion" {
			ts.Alpha = alpha
		}
		return ts
	}
	var combos []campaignCombo
	for _, name := range names {
		// The static insertion cell exists for every registry name, so this
		// fails only for a name the registry does not hold.
		if _, err := server.InfoForSpec(server.TenantSpec{Sketch: name}); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		for _, pol := range policyList {
			for _, model := range modelList {
				ts := specFor(name, pol, model)
				info, err := server.InfoForSpec(ts)
				if err != nil {
					if expanded {
						continue // invalid cell of an auto-expanded grid
					}
					fmt.Fprintf(os.Stderr, "%v\n", err)
					os.Exit(2)
				}
				combos = append(combos, campaignCombo{ts: ts, info: info})
			}
		}
	}
	return combos, policyList, modelList
}

func runCampaign(args []string) {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	var (
		adversaries = fs.String("adversaries", "ams,chaser,ramp,seedleak", "comma-separated adversary strategies")
		targets     = fs.String("targets", "estimator,engine,http", "comma-separated target kinds")
		sketches    = fs.String("sketches", "f2,kmv,countsketch", "comma-separated registry sketch types, or 'all' for the full registry (entropy types are slow)")
		policies    = fs.String("policies", "none,ring", "comma-separated robustness policies crossed with every sketch in -sketches, or 'all'")
		models      = fs.String("models", "insertion", "comma-separated stream models crossed with every base sketch × policy cell (insertion, turnstile, bounded_deletion), or 'all'")
		alpha       = fs.Float64("alpha", 4, "deletion budget α of the bounded_deletion cells (Definition 8.1)")
		steps       = fs.Int("steps", 3000, "max adversary rounds per combination")
		eps         = fs.Float64("eps", 0.3, "the 1±ε acceptance envelope (additive ε bits for entropy types)")
		delta       = fs.Float64("delta", 0.05, "per-keyspace failure probability")
		shards      = fs.Int("shards", 1, "engine/server shard count (estimator target always uses 1; >1 dilutes single-sketch attacks across independent shard sketches, an interesting sweep of its own)")
		warmup      = fs.Int("warmup", 32, "rounds exempt from the check (rounding granularity on tiny truths)")
		amsT        = fs.Int("ams-t", 64, "row count the AMS attack assumes of its victim")
		seed        = fs.Int64("seed", 1, "root randomness seed")
		codecName   = fs.String("codec", "binary", "wire codec of the http target's client: binary (negotiated frames) or json (the compat path)")
		out         = fs.String("o", "", "write the JSON report here (default stdout)")
	)
	_ = fs.Parse(args)

	var codec client.Codec
	switch *codecName {
	case "binary":
		codec = client.CodecBinary
	case "json":
		codec = client.CodecJSON
	default:
		fmt.Fprintf(os.Stderr, "unknown codec %q (have: binary, json)\n", *codecName)
		os.Exit(2)
	}

	// Validate the sweep axes up front: a typo must exit loudly, not run a
	// sweep of zero campaigns that CI would read as green.
	knownAdversaries := map[string]bool{"ams": true, "chaser": true, "ramp": true, "seedleak": true, "pump": true}
	knownTargets := map[string]bool{"estimator": true, "engine": true, "http": true}
	advList := splitList(*adversaries)
	targetList := splitList(*targets)
	for _, a := range advList {
		if !knownAdversaries[a] {
			fmt.Fprintf(os.Stderr, "unknown adversary %q (have: ams, chaser, ramp, seedleak, pump)\n", a)
			os.Exit(2)
		}
	}
	for _, tk := range targetList {
		if !knownTargets[tk] {
			fmt.Fprintf(os.Stderr, "unknown target kind %q (have: estimator, engine, http)\n", tk)
			os.Exit(2)
		}
	}
	combos, policyList, modelList := resolveCombos(*sketches, *policies, *models, *alpha)

	report := campaignReport{Eps: *eps, Steps: *steps, Shards: *shards, Policies: policyList, Models: modelList, Alpha: *alpha}
	failed := 0
	for _, combo := range combos {
		for _, targetKind := range targetList {
			for _, advName := range advList {
				res := runCampaignCombo(comboConfig{
					adv: advName, target: targetKind, combo: combo,
					steps: *steps, eps: *eps, delta: *delta, shards: *shards,
					warmup: *warmup, amsT: *amsT, seed: *seed, codec: codec,
				})
				report.Results = append(report.Results, res)
				verdict := "held"
				switch {
				case res.Skipped != "":
					verdict = "skipped (" + res.Skipped + ")"
				case res.Error != "":
					verdict = "error (" + res.Error + ")"
					failed++
				case res.Broken:
					verdict = fmt.Sprintf("BROKEN at %d", res.BrokenAt)
				}
				fmt.Fprintf(os.Stderr, "  %-9s vs %-9s %-12s %-10s %-16s %s\n",
					advName, targetKind, res.Sketch, res.Policy, res.Model, verdict)
			}
		}
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "report: %s (%d combinations)\n", *out, len(report.Results))
	}
	// A campaign that could not even run is a failure, not data: exit
	// non-zero so the nightly sweep goes red instead of silently green.
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d combinations aborted with errors\n", failed, len(report.Results))
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value, trimming whitespace.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

type comboConfig struct {
	adv, target string
	combo       campaignCombo
	steps       int
	eps, delta  float64
	shards      int
	warmup      int
	amsT        int
	seed        int64
	codec       client.Codec
}

// buildTarget constructs the system under test for one combination. Every
// target kind hosts the exact estimator stack a sketchd tenant runs: the
// factories and combiners come from the server's own spec registry,
// composed with the requested robustness policy.
func buildTarget(c comboConfig) (campaignTarget, error) {
	cfg := server.Config{Shards: c.shards, Eps: c.eps, Delta: c.delta, N: 1 << 20, Seed: c.seed}
	ts := c.combo.ts
	switch c.target {
	case "estimator":
		cfg.Shards = 1
		ec, err := server.EngineConfig(ts, cfg, c.seed)
		if err != nil {
			return campaignTarget{}, err
		}
		est := ec.Factory(c.seed)
		return campaignTarget{
			tgt: game.NewEstimatorTarget(est),
			leak: func() hashLeaker {
				hl, _ := est.(hashLeaker)
				return hl
			},
			space: est.SpaceBytes,
			close: func() {},
		}, nil
	case "engine":
		ec, err := server.EngineConfig(ts, cfg, c.seed)
		if err != nil {
			return campaignTarget{}, err
		}
		eng := engine.New(ec)
		return campaignTarget{
			tgt: game.NewEngineTarget(eng),
			leak: func() hashLeaker {
				var hl hashLeaker
				_ = eng.Visit(func(i int, est sketch.Estimator) error {
					if i == 0 {
						hl, _ = est.(hashLeaker)
					}
					return nil
				})
				return hl
			},
			space: eng.SpaceBytes,
			close: eng.Close,
		}, nil
	case "http":
		srv := server.New(cfg)
		hs := httptest.NewServer(srv.Handler())
		ctx := context.Background()
		cl := client.New(hs.URL, hs.Client(), client.WithCodec(c.codec))
		if _, err := cl.CreateTenant(ctx, "campaign", ts); err != nil {
			hs.Close()
			return campaignTarget{}, err
		}
		return campaignTarget{
			tgt:  client.NewGameTarget(ctx, cl, "campaign"),
			leak: func() hashLeaker { return nil },
			space: func() int {
				ks, err := cl.KeyStats(ctx, "campaign")
				if err != nil {
					return 0
				}
				return ks.SpaceBytes
			},
			close: func() {
				srv.Drain()
				hs.Close()
			},
		}, nil
	}
	return campaignTarget{}, fmt.Errorf("unknown target kind %q (have: estimator, engine, http)", c.target)
}

// buildAdversary constructs the strategy, given the built target (the
// seed-leak adversary needs to steal the victim's hash function first).
func buildAdversary(c comboConfig, ct campaignTarget) (game.Adversary, string) {
	switch c.adv {
	case "ams":
		return adversary.NewAMSAttack(c.amsT, 4, c.seed+7), ""
	case "chaser":
		return adversary.NewChaser(c.steps, c.seed+11), ""
	case "ramp":
		return adversary.NewRamp(c.steps), ""
	case "seedleak":
		hl := ct.leak()
		if hl == nil {
			return nil, "target does not leak a hash seed (KMV-backed, non-HTTP targets only)"
		}
		warm := c.steps / 2
		return adversary.NewSeedLeak(hl.Hash(), warm, c.steps-warm), ""
	case "pump":
		if c.combo.info.Model == "insertion" {
			return nil, "pump deletes; insertion-only cells reject negative deltas (use -models turnstile or bounded_deletion)"
		}
		alpha := math.Inf(1)
		if c.combo.info.Model == "bounded_deletion" {
			alpha = c.combo.ts.Alpha
		}
		return adversary.NewPump(c.steps, alpha, c.seed+13), ""
	}
	return nil, fmt.Sprintf("unknown adversary %q", c.adv)
}

func runCampaignCombo(c comboConfig) campaignResult {
	out := campaignResult{
		Adversary: c.adv, Target: c.target,
		Sketch: c.combo.info.Name, Policy: c.combo.info.Policy,
		Model: c.combo.info.Model, Robust: c.combo.info.Robust,
	}
	ct, err := buildTarget(c)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	defer ct.close()
	adv, skip := buildAdversary(c, ct)
	if skip != "" {
		out.Skipped = skip
		return out
	}
	checkEps := c.eps
	if c.combo.info.Robust && c.combo.info.Model != "insertion" {
		// Non-insertion robust cells publish the moment ‖f‖_p^p: the inner
		// (1±ε)-on-the-norm guarantee is (1±ε)^p on the moment, so widen
		// the envelope accordingly (p ≤ 2 throughout the registry).
		checkEps = c.eps * (2 + c.eps)
	}
	check := game.RelCheck(checkEps)
	if c.combo.info.Additive {
		check = game.AdditiveCheck(checkEps)
	}
	res, err := game.RunTarget(ct.tgt, adv, c.combo.info.Truth, check, game.Config{
		MaxSteps: c.steps, StopOnBreak: true, Warmup: c.warmup,
	})
	out.Steps = res.Steps
	out.Broken = res.Broken
	out.BrokenAt = res.BrokenAt
	out.MaxRelErr = res.MaxRelErr
	if ct.space != nil {
		out.SpaceBytes = ct.space()
	}
	if err != nil {
		out.Error = err.Error()
	}
	return out
}
