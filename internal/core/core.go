// Package core implements the paper's central contribution: the generic
// tools of Section 3 that transform a static (fixed-stream) streaming
// algorithm into an adversarially robust one.
//
//   - ε-rounding of output sequences (Definition 3.1) and of algorithms
//     (Definition 3.7), which limits the information an adaptive adversary
//     can extract from the published estimates;
//   - the flip number λ_{ε,m}(g) (Definition 3.2), the budget of "output
//     changes" any valid stream can force, with the theoretical bounds of
//     Proposition 3.4 / Corollary 3.5 / Proposition 7.2 / Lemma 8.2 and an
//     empirical measurement;
//   - sketch switching (Algorithm 1 / Lemma 3.6): λ independent copies of
//     the static algorithm, each used for one rounded output value and
//     then abandoned (or, in the ring variant of Theorem 4.1, restarted on
//     the stream suffix), so the adversary never sees two outputs derived
//     from the same randomness;
//   - computation paths (Lemma 3.8): a single copy run at failure
//     probability δ₀ small enough to union-bound over every output
//     sequence the rounded algorithm can produce.
//
// Both transformations are robust only against an adversary who sees the
// rounded output and nothing else (Lemmas 3.6, 3.8), so Switcher and Paths
// expose no per-coordinate query; robust point queries are a different
// construction, the frozen ring of Theorem 6.5 (robust.HeavyHitters).
// Both decide per update — any intermediate estimate can flip the output —
// so neither has a batch method: sketch.ApplyBatch is the one batch loop.
//
// The assembled robust estimators for concrete problems (F0, Fp, heavy
// hitters, entropy, bounded deletions, cryptographic F0) live in
// internal/robust; the adversarial game loop lives in internal/game.
package core
