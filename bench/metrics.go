package main

// The metric registry: every number the benchmark prints is declared here
// once, with its unit, which way is better, and — for the end-to-end
// metrics — the share of the parent's median by which it may worsen
// before a change counts as a regression. BENCHMARK.json lists the same
// names; TestNamesMatchBenchmarkJSON holds the two together.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only
	Layer  string  // per-layer only: the module the number belongs to
	Moves  string  // per-layer only: the end-to-end metric (→ workload) it should move
}

// endToEnd is measured with tracing off and reported by every workload.
// The contract of BENCHMARK.json wants every end-to-end metric from every
// workload and never zero, so this list holds the metrics all five
// workloads produce; the ones only one workload can produce
// (ingest_json_updates_per_s, rounds_per_s, round_p50_ms, round_p99_ms,
// recovery_s) keep their names in perLayer under layer "client", and
// error_rate is the failed/attempted pair of the result line.
//
// Every bound is 0.25, the most the contract allows. The issue asked for
// 5–15 %, but on this shared two-core guest the spread of ten runs of the
// seed commit (quartile distance over median) is 1–9 % on the timings in a
// quiet hour, once they are put at the quiet host's speed (calib.go), and
// was 20–64 % as measured in a noisy one; the driver refuses a benchmark
// whose spread exceeds a metric's bound. Differences smaller than the
// bound are what paired runs are for (README).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ingest_updates_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ingest_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server_cpu_us_per_req", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "server_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

var perLayer = []metricDef{
	// Demoted end-to-end metrics: measured by the untraced process run,
	// produced by one workload only.
	{Name: "ingest_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "itself → every workload's fixed-schedule phase"},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "itself → every workload's fixed-schedule phase"},
	{Name: "ingest_json_updates_per_s", Unit: "1/s", Better: "higher", Layer: "client", Moves: "itself → ingest_static phase B"},
	{Name: "rounds_per_s", Unit: "1/s", Better: "higher", Layer: "client", Moves: "ingest_updates_per_s → adaptive_game"},
	{Name: "round_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "ingest_p50_ms + query_p50_ms → adaptive_game"},
	{Name: "round_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "ingest_p99_ms, query_p99_ms → adaptive_game"},
	{Name: "recovery_s", Unit: "s", Better: "lower", Layer: "client", Moves: "itself → mixed_durable"},

	{Name: "hash.eval_ns", Unit: "ns", Better: "lower", Layer: "hash", Moves: "ingest_updates_per_s, server_cpu_us_per_req → ingest_robust"},

	{Name: "sketch.update_ns", Unit: "ns", Better: "lower", Layer: "sketch", Moves: "ingest_updates_per_s → ingest_static"},
	{Name: "sketch.estimate_ns", Unit: "ns", Better: "lower", Layer: "sketch", Moves: "query_p50_ms → mixed_durable"},
	{Name: "sketch.point_ns", Unit: "ns", Better: "lower", Layer: "sketch", Moves: "query_p50_ms → mixed_durable"},
	{Name: "sketch.topk_us", Unit: "us", Better: "lower", Layer: "sketch", Moves: "query_p50_ms, query_p99_ms → mixed_durable"},
	{Name: "sketch.state_bytes", Unit: "B", Better: "lower", Layer: "sketch", Moves: "server_rss_mb → ingest_static"},

	{Name: "robust.update_ns", Unit: "ns", Better: "lower", Layer: "robust", Moves: "ingest_updates_per_s, server_cpu_us_per_req → ingest_robust"},
	{Name: "robust.update_single_ns", Unit: "ns", Better: "lower", Layer: "robust", Moves: "ingest_updates_per_s → adaptive_game"},
	{Name: "robust.self_update_ns", Unit: "ns", Better: "lower", Layer: "robust", Moves: "server_cpu_us_per_req → ingest_robust"},
	{Name: "robust.tax_x", Unit: "x", Better: "lower", Layer: "robust", Moves: "ingest_updates_per_s → ingest_robust"},
	{Name: "robust.topk_us", Unit: "us", Better: "lower", Layer: "robust", Moves: "query_p99_ms → mixed_durable"},
	{Name: "robust.state_bytes", Unit: "B", Better: "lower", Layer: "robust", Moves: "server_rss_mb → ingest_robust"},
	{Name: "robust.space_ratio", Unit: "x", Better: "lower", Layer: "robust", Moves: "server_rss_mb → ingest_robust"},
	{Name: "robust.cpu_share", Unit: "%", Better: "lower", Layer: "robust", Moves: "server_cpu_us_per_req → ingest_robust (≥70), ingest_static (≈0)"},
	{Name: "robust.switches", Unit: "count", Better: "lower", Layer: "robust", Moves: "none — flip budget consumed"},
	{Name: "robust.budget_used_frac", Unit: "frac", Better: "lower", Layer: "robust", Moves: "none — must stay below 1"},
	{Name: "robust.copies_live", Unit: "count", Better: "lower", Layer: "robust", Moves: "server_rss_mb → ingest_robust"},
	{Name: "game.static_break_step", Unit: "count", Better: "lower", Layer: "robust", Moves: "none — the round the unprotected twin leaves the envelope"},

	{Name: "engine.update_ns", Unit: "ns", Better: "lower", Layer: "engine", Moves: "ingest_updates_per_s → ingest_static"},
	{Name: "engine.self_update_ns", Unit: "ns", Better: "lower", Layer: "engine", Moves: "ingest_updates_per_s → ingest_static"},
	{Name: "engine.flush_us", Unit: "us", Better: "lower", Layer: "engine", Moves: "query_p50_ms → adaptive_game"},
	{Name: "engine.estimate_us", Unit: "us", Better: "lower", Layer: "engine", Moves: "query_p50_ms → adaptive_game"},
	{Name: "engine.point_us", Unit: "us", Better: "lower", Layer: "engine", Moves: "query_p50_ms → mixed_durable"},
	{Name: "engine.topk_us", Unit: "us", Better: "lower", Layer: "engine", Moves: "query_p50_ms, query_p99_ms → mixed_durable"},

	{Name: "wire.encode_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "ingest_updates_per_s → ingest_static"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "ingest_updates_per_s → ingest_static"},
	{Name: "wire.bytes_per_update", Unit: "B", Better: "lower", Layer: "wire", Moves: "ingest_updates_per_s → ingest_static"},
	{Name: "wire.answer_encode_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "query_p50_ms → mixed_durable"},

	{Name: "server.ingest_ns", Unit: "ns", Better: "lower", Layer: "server", Moves: "ingest_p50_ms → ingest_static"},
	{Name: "server.ingest_json_ns", Unit: "ns", Better: "lower", Layer: "server", Moves: "ingest_json_updates_per_s → ingest_static"},
	{Name: "server.ingest_allocs_per_batch", Unit: "count", Better: "lower", Layer: "server", Moves: "ingest_updates_per_s → ingest_static"},
	{Name: "server.ingest_json_allocs_per_batch", Unit: "count", Better: "lower", Layer: "server", Moves: "ingest_json_updates_per_s → ingest_static"},
	{Name: "server.self_ingest_ns", Unit: "ns", Better: "lower", Layer: "server", Moves: "ingest_p50_ms → ingest_static, adaptive_game"},
	{Name: "server.cpu_share", Unit: "%", Better: "lower", Layer: "server", Moves: "server_cpu_us_per_req → ingest_robust (wire+server ≤5)"},
	{Name: "server.query_estimate_us", Unit: "us", Better: "lower", Layer: "server", Moves: "query_p50_ms → adaptive_game"},
	{Name: "server.query_point_us", Unit: "us", Better: "lower", Layer: "server", Moves: "query_p50_ms → mixed_durable"},
	{Name: "server.query_topk_us", Unit: "us", Better: "lower", Layer: "server", Moves: "query_p99_ms → mixed_durable"},
	{Name: "server.recovery_replayed_updates", Unit: "count", Better: "lower", Layer: "server", Moves: "recovery_s → mixed_durable"},

	{Name: "client.ingest_ns", Unit: "ns", Better: "lower", Layer: "client", Moves: "ingest_p50_ms → ingest_static"},
	{Name: "client.self_ingest_ns", Unit: "ns", Better: "lower", Layer: "client", Moves: "ingest_p50_ms → ingest_static, adaptive_game"},
	{Name: "client.query_us", Unit: "us", Better: "lower", Layer: "client", Moves: "query_p50_ms → adaptive_game"},
	{Name: "client.late_ms_p99", Unit: "ms", Better: "lower", Layer: "client", Moves: "none — generator health"},
	{Name: "client.backlog_max", Unit: "count", Better: "lower", Layer: "client", Moves: "none — generator health"},
	{Name: "client.cpu_s", Unit: "s", Better: "lower", Layer: "client", Moves: "none — generator health"},

	{Name: "wal.append_ns", Unit: "ns", Better: "lower", Layer: "wal", Moves: "ingest_p50_ms, server_cpu_us_per_req → mixed_durable"},
	{Name: "wal.sync_us_p50", Unit: "us", Better: "lower", Layer: "wal", Moves: "ingest_p99_ms → mixed_durable"},
	{Name: "wal.sync_us_p99", Unit: "us", Better: "lower", Layer: "wal", Moves: "ingest_p99_ms → mixed_durable"},
	{Name: "wal.bytes_per_update", Unit: "B", Better: "lower", Layer: "wal", Moves: "recovery_s → mixed_durable"},
	{Name: "wal.write_amp", Unit: "x", Better: "lower", Layer: "wal", Moves: "ingest_p50_ms → mixed_durable"},
	{Name: "wal.replay_ns", Unit: "ns", Better: "lower", Layer: "wal", Moves: "recovery_s → mixed_durable"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower", Layer: "wal", Moves: "ingest_p99_ms → mixed_durable"},
	{Name: "wal.segments", Unit: "count", Better: "lower", Layer: "wal", Moves: "recovery_s → mixed_durable"},
	{Name: "wal.records", Unit: "count", Better: "lower", Layer: "wal", Moves: "recovery_s → mixed_durable"},
	{Name: "wal.checkpoints_written", Unit: "count", Better: "lower", Layer: "wal", Moves: "ingest_p99_ms → mixed_durable"},

	{Name: "cluster.ship_build_us", Unit: "us", Better: "lower", Layer: "cluster", Moves: "ingest_p99_ms, server_cpu_us_per_req → cluster_r2"},
	{Name: "cluster.ship_apply_us", Unit: "us", Better: "lower", Layer: "cluster", Moves: "ingest_p99_ms, server_cpu_us_per_req → cluster_r2"},
	{Name: "cluster.ship_bytes", Unit: "B", Better: "lower", Layer: "cluster", Moves: "server_cpu_us_per_req → cluster_r2"},
	{Name: "cluster.merged_answer_us", Unit: "us", Better: "lower", Layer: "cluster", Moves: "query_p99_ms → cluster_r2"},
	{Name: "cluster.redirect_frac", Unit: "frac", Better: "lower", Layer: "cluster", Moves: "ingest_p50_ms, query_p50_ms → cluster_r2"},
	{Name: "cluster.converge_ms", Unit: "ms", Better: "lower", Layer: "cluster", Moves: "none — ship-now until replicas equal the owner"},

	{Name: "host.slowdown_x", Unit: "x", Better: "lower", Layer: "host", Moves: "none — what every timing of the fixed-schedule phase was divided by"},
	{Name: "host.slowdown_closed_x", Unit: "x", Better: "lower", Layer: "host", Moves: "none — what ingest_updates_per_s was multiplied by"},

	{Name: "repo.nontest_go_loc", Unit: "count", Better: "lower", Layer: "repo", Moves: "none — trend line"},
	{Name: "repo.build_s", Unit: "s", Better: "lower", Layer: "repo", Moves: "none — go build ./cmd/sketchd"},
}
