// Package stream defines the data-stream model of the paper: sequences of
// updates (a_t, Δ_t) ∈ [n] × Z to a frequency vector f ∈ R^n, together with
// exact reference statistics (used as ground truth in tests and
// experiments) and workload generators for every stream class the paper
// considers: insertion-only, turnstile, and α-bounded-deletion streams.
package stream

import "repro/internal/sketch"

// Update is a single stream update (a_t, Δ_t): Item receives an increment
// of Delta. In the insertion-only model Delta > 0; in the turnstile model
// Delta may be negative. It is sketch.Update, so a generated stream feeds
// a sketch's batch path without a copy.
type Update = sketch.Update

// Stream is a finite sequence of updates.
type Stream []Update

// Generator produces a stream one update at a time. Generators are used by
// tests, benchmarks and the experiment harness; adaptive adversaries (which
// must observe algorithm outputs between updates) live in internal/adversary
// instead and implement game.Adversary.
type Generator interface {
	// Next returns the next update. ok is false when the stream is exhausted.
	Next() (u Update, ok bool)
}

// Collect drains g into a Stream, stopping after at most max updates
// (max <= 0 means no limit).
func Collect(g Generator, max int) Stream {
	var s Stream
	for {
		u, ok := g.Next()
		if !ok {
			return s
		}
		s = append(s, u)
		if max > 0 && len(s) >= max {
			return s
		}
	}
}
