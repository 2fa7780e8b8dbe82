// Command robuststream runs an adversarially robust estimator over a
// stream read from stdin, one update per line: "<item> [delta]" (delta
// defaults to 1). It prints the tracked estimate every -every updates and
// a summary at EOF. Every -stat is an insertion-only construction, so a
// line with a negative delta is skipped with a message: a deletion would
// void its guarantee.
//
// With -shards > 1 the updates are ingested through the sharded concurrent
// engine (internal/engine): items are hash-routed to independent robust
// estimator instances whose estimates are recombined per statistic (sums
// for f0, power sums for norms, the entropy chain rule for entropy). Space
// grows linearly with the shard count; throughput scales with cores.
//
// Examples:
//
//	awk 'BEGIN{for(i=0;i<100000;i++) print int(rand()*4096)}' | go run ./cmd/robuststream -stat f0 -eps 0.2
//	cat trace.txt | go run ./cmd/robuststream -stat l2 -eps 0.3 -every 10000 -shards 8
//
// Supported -stat values: f0, f1, l1, l2, fp (with -p), entropy.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/robust"
	"repro/internal/sketch"
)

func main() {
	stat := flag.String("stat", "f0", "statistic: f0 | f1 | l1 | l2 | fp | entropy")
	eps := flag.Float64("eps", 0.2, "accuracy parameter")
	delta := flag.Float64("delta", 0.01, "failure probability")
	p := flag.Float64("p", 1.5, "moment order for -stat fp (0 < p <= 2)")
	n := flag.Uint64("n", 1<<20, "universe size bound")
	every := flag.Int("every", 5000, "print the estimate every k updates")
	seed := flag.Int64("seed", 1, "sketch randomness seed")
	shards := flag.Int("shards", 1, "shard workers for concurrent ingest (1 = single-threaded)")
	flag.Parse()
	if *shards < 1 {
		*shards = 1
	}

	// Union bound: the combined estimate fails if any shard's estimator
	// fails, so each instance gets δ/shards to keep the printed δ honest.
	instDelta := *delta / float64(*shards)
	factory, combine, label, err := buildStat(*stat, *eps, instDelta, *p, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var est sketch.Estimator
	var eng *engine.Engine
	if *shards > 1 {
		eng = engine.New(engine.Config{
			Shards:  *shards,
			Combine: combine,
			Factory: factory,
			Seed:    *seed,
		})
		est = eng
	} else {
		est = factory(*seed)
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var m int64
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		item, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipping line %d: %v\n", line, err)
			continue
		}
		delta := int64(1)
		if len(fields) > 1 {
			if delta, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
				fmt.Fprintf(os.Stderr, "skipping line %d: %v\n", line, err)
				continue
			}
		}
		if delta < 0 {
			fmt.Fprintf(os.Stderr, "skipping line %d: negative delta %d: -stat %s is insertion-only\n", line, delta, *stat)
			continue
		}
		est.Update(item, delta)
		m++
		if *every > 0 && m%int64(*every) == 0 {
			fmt.Printf("m=%-10d %s ≈ %.4g\n", m, label, est.Estimate())
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "read error: %v\n", err)
		os.Exit(1)
	}
	if eng != nil {
		eng.Close()
	}
	fmt.Printf("final: m=%d  %s ≈ %.6g  (ε=%.2g, δ=%.2g, shards=%d, space %d KiB)\n",
		m, label, est.Estimate(), *eps, *delta, *shards, est.SpaceBytes()/1024)
}

// buildStat returns the per-instance estimator factory, the shard
// combiner that reassembles the statistic, and the display label.
func buildStat(stat string, eps, delta, p float64, n uint64) (sketch.Factory, engine.Combiner, string, error) {
	switch stat {
	case "f0":
		return func(seed int64) sketch.Estimator {
			return robust.NewF0(eps, delta, n, seed)
		}, engine.Sum, "f0", nil
	case "f1", "l1":
		return func(seed int64) sketch.Estimator {
			return robust.NewFp(1, eps, delta, n, seed)
		}, engine.Norm(1), stat, nil
	case "l2":
		return func(seed int64) sketch.Estimator {
			return robust.NewFp(2, eps, delta, n, seed)
		}, engine.Norm(2), "l2", nil
	case "fp":
		return func(seed int64) sketch.Estimator {
			return robust.NewFp(p, eps, delta, n, seed)
		}, engine.Norm(p), fmt.Sprintf("L%.2f", p), nil
	case "entropy":
		return func(seed int64) sketch.Estimator {
			return robust.NewEntropy(eps, delta, 64, seed)
		}, engine.Entropy, "entropy", nil
	default:
		return nil, nil, "", fmt.Errorf("unknown -stat %q", stat)
	}
}
