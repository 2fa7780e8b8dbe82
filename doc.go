// Package repro is the root of a from-scratch Go reproduction of
// "A Framework for Adversarially Robust Streaming Algorithms"
// (Ben-Eliezer, Jayaram, Woodruff, Yogev — PODS 2020). The library lives
// under internal/ (the package map is below), three runnable examples
// under examples/, and the experiment harness — every attack scenario's
// one program — under cmd/experiments. The
// root package holds the benchmark suite that regenerates every table and
// figure of the paper (bench_test.go).
//
// Package map, bottom to top:
//
//   - internal/hash, internal/dist, internal/prf, internal/codec — the
//     primitive layer: polynomial/tabulation hashing over a Mersenne
//     field, deterministic pseudorandom variates (SplitMix64, exponential,
//     p-stable and maximally skewed 1-stable via Chambers–Mallows–Stuck,
//     plus the MedianAbs calibration constant of Indyk's estimator), an
//     AES-based PRF, and the binary codec: the one bounds-checked byte
//     cursor (codec.Reader) that sketch marshaling, the snapshot envelope,
//     WAL checkpoints and every wire frame decoder parse untrusted bytes
//     through.
//   - internal/sketch — the Estimator/Factory interfaces every algorithm
//     implements, plus the type-erased Codec over the mergeable types'
//     marshal/merge methods.
//   - internal/sketchtest — the conformance kit: update/estimate tracking
//     contract, fixed-seed determinism, declared duplicate-insensitivity,
//     codec round-trips, and the merge laws (zero identity,
//     associativity, linearity, seed-mismatch rejection). The server's
//     registry conformance test runs every hostable type through it.
//   - internal/f0, internal/fp, internal/heavyhitters, internal/entropy,
//     internal/cascaded — the static (non-robust) sketches.
//   - internal/core — the paper's generic robustifications: sketch
//     switching (§4), computation paths (§4), ε-rounding and flip-number
//     machinery (§3). core.Lagged holds instances that trail a shared
//     bounded lag buffer — the Switcher's non-active copies, and
//     robust.HeavyHitters' CountSketch ring; a drain coalesces the
//     buffer once (per-item net deltas) for every copy whose inner sketch
//     declares sketch.CoalesceInvariant, instead of replaying repeats
//     per copy. A wrapper has no batch method: sketch.ApplyBatch is the
//     one batch loop.
//   - internal/robust — the robustness policy layer and the assembled
//     robust estimators. robust.Policy names a transformation (none,
//     switching, ring, paths) and composes with any robust.Problem (the
//     per-statistic sizing: inner factory, ε₀ divisor, flip bound, value
//     range — plus the stream model) through one constructor,
//     Policy.Wrap — the full sketch × policy × model matrix from a
//     handful of problem descriptors. robust.Model declares which streams the
//     guarantee quantifies over and selects the flip bound that sizes
//     the wrapper: InsertionModel (Proposition 3.4), TurnstileModel(λ)
//     (the Theorem 1.6 flip class S_λ), or BoundedDeletionModel(α)
//     (Lemma 8.2); LpProblemFor(p, model) builds the matching Fp
//     problem, switching to a signed inner sketch for the non-insertion
//     models, and invalid compositions (ring under deletions, non-Fp
//     statistics under a signed model) are rejected at Wrap time.
//     Wrap is the only construction path — nothing else calls
//     core.NewSwitcher or core.NewPaths — so each theorem is a (policy
//     kind, problem) pair: the table in the internal/robust package doc
//     lists them, NewF0 / NewFp / NewHeavyHitters / NewEntropy are
//     shorthands for four of its rows, and every wrapper reports its
//     flip-budget consumption through sketch.RobustnessReporter.
//     Policy.StateBytes prices what Wrap would build, unbuilt (sketchd
//     admits tenants by it).
//   - internal/engine — a sharded, batched, concurrent ingest pipeline
//     that hash-routes updates to per-shard estimator instances (static
//     or robust), coalesces duplicates per batch (sketch.Coalescer, the
//     routine every core.Lagged catch-up shares: a flat open-addressing
//     index, stamped per call instead of cleared, so a call costs
//     O(len(batch)) whatever it met before), and recombines the
//     per-shard estimates into the global statistic (sums, power sums, or
//     the entropy chain rule). Batch buffers are pooled end to end, so
//     the steady-state ingest path allocates nothing per update
//     (TestSteadyStateZeroAllocs pins 0 allocs/op). It implements
//     sketch.Estimator, so it drops into any harness in the repository.
//   - internal/wire — the binary frame codec of the ingest spine:
//     length-prefixed, versioned frames for update batches and the v2
//     query/answer envelopes (fixed u64 item ids — no 2^53 JSON cliff —
//     with zigzag-varint deltas), encoded into and decoded from
//     caller-supplied buffers; payloads are read through a codec.Reader
//     held on the decoder's stack. Clients and servers negotiate it per
//     request via Content-Type/Accept ("application/x-sketch-frame");
//     JSON stays as the debug/compat codec with identical semantics,
//     pinned byte-for-byte by the cross-codec snapshot tests.
//   - internal/wal — the persistence layer: a segmented, CRC-framed
//     write-ahead log whose update records are the wire codec's update
//     frames byte-for-byte (journaling is an append, not a re-encode),
//     plus per-tenant checkpoints through the CRC-bearing snapshot
//     envelope. Open truncates a torn tail and quarantines corrupt
//     segments instead of failing the boot; fsync policy (always |
//     batch | none) picks the ack-vs-throughput point.
//   - internal/server, internal/client — sketchd, the multi-tenant
//     network sketch service (cmd/sketchd): declarative tenants (POST
//     /v2/keys with a TenantSpec — each tenant a sketch × policy ×
//     stream-model combination sized from its own ε, δ, n, shards and
//     flip budget, plus λ for model=turnstile and α for
//     model=bounded_deletion, with the server Config supplying
//     sizing defaults and caps; a declared TenantSpec is the only way a
//     tenant is admitted, and every other endpoint answers 404 for a
//     key nobody declared; tenants
//     default to model=insertion and then reject negative deltas with
//     400 before anything from the batch is applied, while
//     turnstile/bounded-deletion tenants accept signed updates and
//     expose mass/deleted_mass telemetry), structured queries (POST
//     /v2/query:
//     estimate | point | topk batches answered with ε-derived error
//     bounds and flip-budget state — the Section 6 point-query and heavy
//     hitters machinery over HTTP, frozen-ring-backed for
//     countsketch+ring; every batch is checked and answered as one
//     wire.QueryRequest and wire.QueryResponse, and a JSON batch is
//     transcoded at the edge by server.QueryRequest.Frame and
//     server.ResponseFromFrame, which the client shares), batched ingest under both codecs (binary
//     frames on POST /v2/update, JSON with string-or-number uint64 item
//     ids on /v1/update and /v2/update alike — one shared apply core,
//     so codec choice never changes semantics), blocking and lock-free
//     reads, binary snapshot/merge between seed-compatible tenants,
//     per-keyspace engines admitted under a quota, and
//     graceful drain (a batch lands whole or not at all under either
//     codec; a 503 or 410 applied none of it, and client.UpdateRetry
//     resends it whole for at-least-once ingest across drains and
//     restarts), and — with
//     -data-dir — crash safety: acknowledged updates are journaled
//     to the WAL before their ack, checkpoints bound replay, and boot
//     recovery restores bit-identical estimates (TestCrashRecoveryE2E
//     SIGKILLs a loaded server, corrupts the log tail, and asserts
//     exact estimate equality across restarts). A tenant crosses a
//     restart or a node boundary one way: tenant.export writes the
//     (resolved spec with seed, snapshot envelope if linear, mass) that
//     create records, checkpoints and shipments carry, Server.rebuild
//     installs it, and every snapshot — merge body, checkpoint, shipment,
//     peer envelope — folds through one stage-check-apply
//     (TestInstallPathsAgree holds the three routes to identical bytes).
//     The Go client sends
//     frames by default (client.WithCodec opts out) and drains every
//     response body so keep-alive connections survive error storms.
//   - internal/cluster — distributed sketchd (cmd/sketchctl is the
//     operator CLI): static-membership rendezvous-hash placement puts
//     every keyspace on an owner plus R−1 replicas, the owner ships
//     snapshot envelopes to replicas on a cadence (two new fuzzed wire
//     frame types, ship and ship-ack; replicas replace rather than fold,
//     ordered by per-key sequence numbers), a probing failure detector
//     exchanges route frames (probe + membership gossip in one) and
//     fails ownership over by re-reading the ranking without the dead
//     node, any member 307-redirects tenant traffic to the owner, and
//     global queries answer from the owner (POST /cluster/query is the
//     owner's POST /v2/query) or — for independently ingesting fleets —
//     from the additive cross-node merge (POST /cluster/query?merge=all). Replicas are bounded-stale by the
//     ship interval; TestClusterFailoverE2E SIGKILLs a keyspace owner
//     under feeder load across three real processes and asserts the ε
//     envelopes hold through failover. The robust policies
//     make the shared endpoint safe to query adaptively — the paper's
//     threat model, realized as a service.
//   - internal/stream, internal/game, internal/adversary — stream
//     generators, the adaptive adversary game loop, and concrete attacks.
//     The game's Target interface runs the same adversaries against a
//     bare estimator, a sharded engine, or a sketchd tenant over HTTP
//     (client.NewGameTarget); `go run ./cmd/experiments campaign` sweeps
//     adversary × target × sketch × policy × model (tenants declared
//     over the v2 surface) and emits a JSON report. The Pump adversary
//     drives the signed-update cells: it oscillates a heavy coordinate
//     through genuine deletions, adapting to the published estimates
//     while staying inside the declared stream class.
//     TestAdaptiveAMSCampaignOverHTTP (attack_e2e_test.go) is the
//     end-to-end regression: the adaptive AMS attack breaks a static f2
//     tenant over loopback HTTP while ring, switching and paths guard
//     tenants on the same stream stay within ε;
//     TestAdaptivePointQueryCampaignOverHTTP (pointquery_e2e_test.go)
//     is its point-query counterpart — a greedy collision finder breaks
//     a static countsketch tenant's point queries via its own answers
//     while the Theorem 6.5 frozen-ring tenant holds ε·‖f‖₂; and
//     TestTurnstileModelCampaignOverHTTP (turnstile_e2e_test.go) is the
//     model-axis regression — a model=turnstile tenant holds its moment
//     envelope through a deletion-heavy Pump campaign that the
//     insertion-only tenant rejects at the first negative delta.
//
// Verify the tree with the tier-1 command:
//
//	go build ./... && go test ./...
package repro
