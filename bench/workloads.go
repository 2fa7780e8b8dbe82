package main

import "repro/internal/client"

// A tenantDef is one keyspace a workload declares before it sends load.
type tenantDef struct {
	Key  string
	Spec client.TenantSpec
}

func (t tenantDef) robust() bool { return t.Spec.Policy != "" && t.Spec.Policy != "none" }

// A workload is one named traffic mix against one deployment shape. The
// shares say how the measured --seconds are cut into phases. The open-loop
// rates are constants, never computed at run time, so a parent and a
// change always get identical load. They are frozen at a quarter or less
// of the closed-loop capacity this guest shows on a slow day (it runs up
// to 2.5 times slower for minutes at a time, whatever the guest itself is
// doing): at half the capacity of a quiet day the loop sat on the knee of
// the latency curve whenever the host was busy, and the median latency
// read 1 ms in one run and 100 ms in the next.
type workload struct {
	Name string
	Why  string

	Nodes      int      // sketchd processes (3 means a cluster)
	ExtraFlags []string // beyond commonFlags
	Durable    bool     // -data-dir, and a SIGKILL/recover step after the load

	Tenants    []tenantDef
	TenantSkew float64 // Zipf exponent of the tenant choice per batch; 0 is uniform
	Preload    int     // batches acknowledged during set-up

	OpenShare   float64 // phase C, which runs first: open loop at WriteRate beside ReadRate
	ClosedShare float64 // phase A: closed loop, binary codec
	JSONShare   float64 // phase B: closed loop, JSON codec

	// ClosedRate, on a workload with switching tenants, makes phase A send
	// a fixed count of batches — what this many a second come to in its
	// share of the time — instead of running by the clock. A switching
	// tenant buffers its updates cheaply and then pays for them in a drain
	// that stalls it for half a second, about once a second: cut by the
	// clock, whether five drains fell into a run or six decided the rate
	// (19 % spread over ten runs). The count always holds the same drains,
	// because the open loop before it leaves the same state behind. The
	// rates are the capacity of a quiet day, so that the phase lasts about
	// its share; on a slow day it lasts up to closedCap times that.
	ClosedRate int

	WriteRate  int // batches per second
	ReadRate   int // query calls per second
	Reads      Mix
	MergeEvery int // cluster: every n-th read asks ?merge=all

	Game bool // the whole of --seconds is the adversarial game
}

func static(key, sketch string) tenantDef {
	return tenantDef{Key: key, Spec: client.TenantSpec{Sketch: sketch, Policy: "none"}}
}

func robustTenant(key, sketch, policy string, budget int) tenantDef {
	return tenantDef{Key: key, Spec: client.TenantSpec{Sketch: sketch, Policy: policy, FlipBudget: budget}}
}

func gameTenant(key, policy string) tenantDef {
	return tenantDef{Key: key, Spec: client.TenantSpec{
		Sketch: "f2", Policy: policy, Eps: gameTenantEps, FlipBudget: gameBudget, Shards: 1,
	}}
}

// Flip budgets λ per shard, sized so that no tenant exhausts: an
// insertion-only stream flips a (1±ε)-rounded output ln(final value) over
// ln(1+ε) times — measured, one flip per 0.234 of ln L2 and per 0.165 of
// ln F0, so 57 flips after three million updates of the benchmark's Zipf
// stream and never more than 80 for the distinct count of one shard of the
// 2^20 universe. A switching tenant keeps a copy per budgeted flip and pays
// for each on every update, so the budgets are not generous; the checks
// fail the run if a tenant exhausts one.
const (
	budgetL2 = 80
	budgetF0 = 96
)

var workloads = []workload{
	{
		Name:  "ingest_static",
		Why:   "kernel is a quarter of an update, so wire, server, client and engine do the work; robust, wal, cluster do none",
		Nodes: 1,
		Tenants: []tenantDef{
			static("cs-0", "countsketch"), static("kmv-0", "kmv"), static("f2-0", "f2"), static("cs-1", "countsketch"),
			static("kmv-1", "kmv"), static("f2-1", "f2"), static("cs-2", "countsketch"), static("cs-3", "countsketch"),
		},
		TenantSkew:  1.1,
		Preload:     64,
		ClosedShare: 0.35,
		JSONShare:   0.15,
		OpenShare:   0.50, WriteRate: 1000, ReadRate: 200,
	},
	{
		Name:  "ingest_robust",
		Why:   "robust wrappers are over 90% of server CPU, so wire and HTTP gains must show nothing; carries the paper's space price",
		Nodes: 1,
		Tenants: []tenantDef{
			robustTenant("f2-switching", "f2", "switching", budgetL2),
			robustTenant("f2-ring", "f2", "ring", 0),
			robustTenant("kmv-switching", "kmv", "switching", budgetF0),
			robustTenant("f2-paths", "f2", "paths", budgetL2),
		},
		Preload:     16,
		ClosedShare: 0.45, ClosedRate: 300,
		OpenShare: 0.55, WriteRate: 60, ReadRate: 200,
	},
	{
		Name:  "adaptive_game",
		Why:   "the paper's own traffic: one update then one published estimate per round, so nothing amortises over a batch",
		Nodes: 1,
		Tenants: []tenantDef{
			gameTenant("game-switching", "switching"),
			gameTenant("game-paths", "paths"),
		},
		Game: true,
	},
	{
		Name:       "mixed_durable",
		Why:        "writes beside reads on one durable node: WAL append, background sync and checkpoints, top-k rescans, then crash recovery",
		Nodes:      1,
		Durable:    true,
		ExtraFlags: []string{"-fsync", "batch", "-checkpoint-every", "131072"},
		Tenants: []tenantDef{
			static("cs", "countsketch"), static("kmv", "kmv"), static("f2", "f2"),
			robustTenant("cs-ring", "countsketch", "ring", 0),
			robustTenant("f2-paths", "f2", "paths", budgetL2),
			robustTenant("kmv-switching", "kmv", "switching", budgetF0),
		},
		Preload:     48,
		ClosedShare: 0.25, ClosedRate: 700,
		OpenShare: 0.75, WriteRate: 75, ReadRate: 60,
		Reads: Mix{Point: 30, TopK: 20},
	},
	{
		Name:       "cluster_r2",
		Why:        "three nodes, two copies: placement, the 307 hop, ship rounds stealing cycles and the pull-and-fold global query",
		Nodes:      3,
		ExtraFlags: []string{"-replicas", "2", "-ship-interval", "200ms", "-probe-interval", "200ms", "-forward"},
		Tenants: []tenantDef{
			static("cs-a", "countsketch"), static("kmv-a", "kmv"), static("f2-a", "f2"),
			static("cs-b", "countsketch"), static("kmv-b", "kmv"), static("f2-b", "f2"),
		},
		Preload:     48,
		ClosedShare: 0.40,
		OpenShare:   0.60, WriteRate: 250, ReadRate: 100,
		Reads:      Mix{TopK: 50},
		MergeEvery: 10,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Game constants. The twin is the unprotected f2 sketch the adversary
// breaks first, untimed; the timed games then run for the whole of
// --seconds against the two robust tenants, whose envelope is checked on
// every round.
const (
	// gameBudget is the flip budget of both game tenants; a round of the
	// attack consumes about ten flips. It also sets the switching tenant's
	// live heap (one copy per flip, ~85 MiB in all), and with it how soon
	// the server's first garbage collection comes: at 96 the heap reached
	// its trigger in some rounds and not in others, and server_rss_mb
	// read 190 or 345 MiB by luck.
	gameBudget     = 48
	gameEps        = 0.3  // the 1±ε envelope of every verdict
	gameTenantEps  = 0.15 // robust tenants are sized at ε/2, as attack_e2e_test.go does
	gameTwinRounds = 3000
	gameWarmup     = 16 // rounding granularity dominates tiny truths
	gameAttackC    = 4  // the constant C of Algorithm 3

	// gameRSSRounds is where a round's server_rss_mb is read: once both
	// games have played this many rounds, which a host five times slower
	// than a quiet one still reaches in a round of five seconds. The game
	// runs for a fixed time, so how much garbage the server has made by the
	// end follows the host's speed, and its heap sits between two of the
	// collector's triggers: read at the end, the peak was 99 MiB in one run
	// and 165 in the next. After a fixed count of rounds it is the same
	// work every time.
	gameRSSRounds = 4000
)
