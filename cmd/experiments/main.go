// Command experiments regenerates every table and figure of the paper's
// evaluation. The experiment index:
//
//	t1         Table 1: space of static vs robust vs deterministic algorithms
//	ams        Theorem 9.1: Algorithm 3 vs the dense AMS sketch (series + success rate)
//	kmv        Section 10 motivation: seed-leakage attack vs KMV / crypto / switching
//	flip       Cor. 3.5, Prop. 7.2, Lemma 8.2: empirical flip numbers vs bounds
//	fastf0     Theorem 1.2: update-time comparison at tiny δ, and the degree where multipoint hashing overtakes Horner
//	crossover  Theorems 4.1 vs 4.2: switching vs computation-paths space as δ shrinks
//	fpbig      Theorem 1.7: n^{1−2/p} width scaling and F3 accuracy
//	turnstile  Theorem 1.6: robust Fp on λ-bounded turnstile streams
//	bdel       Theorem 1.11: bounded-deletion sweep over α
//	entropy    Theorem 1.10: robust entropy accuracy and space
//	hh         Theorem 1.9: robust heavy hitters vs adaptive flooder
//	ablation   Theorem 4.1: ring vs dense switching copies, rounding granularity vs switches
//	all        everything above
//
// Usage: go run ./cmd/experiments -exp t1
//
// The separate campaign subcommand sweeps every adversary strategy
// against every layer of the production stack (bare estimator, sharded
// engine, sketchd over loopback HTTP) for the requested sketch ×
// robustness-policy combinations and emits a JSON report:
//
//	go run ./cmd/experiments campaign -sketches f2,kmv -policies none,ring,paths -o report.json
package main

import (
	"flag"
	"fmt"
	"os"
)

var experiments = []struct {
	name string
	desc string
	run  func()
}{
	{"t1", "Table 1 space comparison", runTable1},
	{"ams", "Theorem 9.1 attack on AMS", runAMS},
	{"kmv", "seed-leakage attack on KMV vs Section 10 defenses", runKMV},
	{"flip", "empirical flip numbers vs theoretical bounds", runFlip},
	{"fastf0", "fast F0 update-time comparison and hashing crossover", runFastF0},
	{"crossover", "switching vs computation-paths space crossover", runCrossover},
	{"fpbig", "Fp for p>2: width scaling and accuracy", runFpBig},
	{"turnstile", "robust Fp on bounded-flip turnstile streams", runTurnstile},
	{"bdel", "bounded-deletion robust Fp sweep", runBoundedDeletion},
	{"entropy", "robust entropy estimation", runEntropy},
	{"hh", "robust L2 heavy hitters vs flooder", runHH},
	{"ablation", "design-choice ablations (switching mode, rounding)", runAblation},
	{"cascade", "cascaded-norm extension (Prop. 3.4 applicability)", runCascade},
}

func main() {
	// The campaign subcommand (adversary × target × sketch sweep with a
	// JSON report) has its own flag set: go run ./cmd/experiments campaign -h
	if len(os.Args) > 1 && os.Args[1] == "campaign" {
		runCampaign(os.Args[2:])
		return
	}
	exp := flag.String("exp", "all", "experiment id (see -list)")
	list := flag.Bool("list", false, "list experiments")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("  %-10s %s\n", e.name, e.desc)
		}
		return
	}
	if *exp == "all" {
		for _, e := range experiments {
			fmt.Printf("\n######## %s: %s ########\n\n", e.name, e.desc)
			e.run()
		}
		return
	}
	for _, e := range experiments {
		if e.name == *exp {
			e.run()
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
	os.Exit(2)
}
