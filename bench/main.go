// Command bench is the repository's benchmark: a separate load-generator
// process that builds cmd/sketchd, spawns real sketchd children on free
// loopback ports, drives them through internal/client, prints every
// metric by name with its unit, checks that the outputs are correct, and
// exits non-zero if a check fails. See README.md in this directory.
//
// Usage (from this directory, or through run.sh from the checkout root):
//
//	go run . -seed 1                          one pass over all five workloads
//	go run . -workload ingest_static -seed 1  one workload; the last line is the result object
//	go run . -trace 1 -seed 1                 the same, then the per-layer ladder with a trace file each
//	go run . -repeat 5 -out a.json            five passes, min/median/max per metric
//	go run . -compare a.json b.json           one row per metric × workload
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// defaultSeconds is run_seconds of BENCHMARK.json: how long the timed
// phases of one workload run.
const defaultSeconds = 15

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "run only this workload and end with the one-line result object (default: all five)")
		seed    = flag.Int64("seed", 1, "seed of every generator; sketchd receives only the generated inputs")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed phases of one workload")
		trace   = flag.Int("trace", 0, "1: after the untraced run, replay the per-layer ladder in-process and write out/<workload>.trace.json")
		repeat  = flag.Int("repeat", 1, "passes over the selected workloads; more than one prints min/median/max per metric")
		out     = flag.String("out", "", "write the result file (all passes, with the environment) here")
		compare = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{*w}
	}
	if *seconds < 1 || *repeat < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be at least 1, -trace 0 or 1")
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	env, err := openEnv()
	if err != nil {
		return fail(err)
	}
	sb := env.sb
	defer sb.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// A signal mid-request would otherwise leave the children to the
		// deferred Close, which only runs once every phase has noticed the
		// cancelled context; kill them now so the phases fail fast.
		<-ctx.Done()
		sb.Close()
	}()

	file := resultFile{Env: environment(env.root), Seed: *seed, Seconds: *seconds}
	ok := true
	for pass := 0; pass < *repeat; pass++ {
		var results []*Result
		for i := range selected {
			res, err := runOne(ctx, env, &selected[i], *seed, *seconds, *trace == 1)
			if err != nil {
				if errors.Is(ctx.Err(), context.Canceled) {
					fmt.Fprintln(os.Stderr, "bench: interrupted")
					return 130
				}
				return fail(err)
			}
			printResult(os.Stdout, res)
			ok = ok && res.Correct()
			results = append(results, res)
		}
		file.Passes = append(file.Passes, results)
	}
	if *repeat > 1 {
		printRepeat(os.Stdout, &file)
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			return fail(err)
		}
	}
	if *name != "" {
		// The driver's contract: the last line of standard output is one
		// JSON object, the end-to-end metrics untraced and the per-layer
		// metrics traced.
		last := file.Passes[len(file.Passes)-1][0]
		line, err := json.Marshal(last.line(*trace == 1))
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne runs one workload untraced and, when traced, follows it with the
// in-process ladder. The ladder starts only after every sketchd child of
// the untraced run has ended, so the end-to-end numbers do not know the
// trace mode exists.
func runOne(ctx context.Context, env *runEnv, w *workload, seed int64, seconds float64, traced bool) (*Result, error) {
	res, err := runWorkload(ctx, env, w, seed, seconds)
	if err != nil {
		return nil, err
	}
	res.setValue("repo.build_s", env.buildTook.Seconds())
	if traced {
		if err := runLadder(env, w, seed, res); err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", w.Name, err)
		}
	}
	return res, nil
}
