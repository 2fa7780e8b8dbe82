package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/dist"
	"repro/internal/server"
)

// runEnv is what every workload of one invocation shares.
type runEnv struct {
	root      string
	bin       string
	buildTook time.Duration
	sb        *Sandbox
}

// Result is everything one run of one workload measured.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	WallS     float64           `json:"wall_s"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Spread `json:"metrics"`
	Checks    []checkResult     `json:"checks"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Correct reports whether every request succeeded and every check held.
func (r *Result) Correct() bool {
	if r.Failed > 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *Result) set(name string, s Spread) { r.Metrics[name] = s }

func (r *Result) setValue(name string, v float64) {
	r.Metrics[name] = Spread{Median: v, Min: v, Max: v}
}

// check records one correctness check; a failed one is a failed operation.
func (r *Result) check(name string, ok bool, format string, args ...any) {
	c := checkResult{Name: name, OK: ok}
	r.Attempted++
	if !ok {
		r.Failed++
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

func (r *Result) addPhase(p *phaseStats) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if p.firstErr != nil {
		r.check("requests", false, "first error: %v", p.firstErr)
	}
}

// deployment is one started set of sketchd processes with its tenants
// declared and preloaded.
type deployment struct {
	procs     []*Proc
	hc        *http.Client
	clients   []*client.Client // binary codec, one per node
	jsonc     *client.Client   // JSON codec against node 0
	dataDir   string
	nodeFlags [][]string // per node: every flag beyond -addr and commonFlags
	redirects atomic.Int64
	replica   map[string]string // cluster only: base URL of a node that holds the key without owning it
}

func (d *deployment) pids() []int {
	out := make([]int, len(d.procs))
	for i, p := range d.procs {
		out[i] = p.Pid()
	}
	return out
}

func (d *deployment) kill() {
	for _, p := range d.procs {
		p.Kill()
	}
	d.hc.CloseIdleConnections()
	if d.dataDir != "" {
		_ = os.RemoveAll(d.dataDir) // sandbox scratch; Close removes leftovers
	}
}

// run is the state of one workload run.
type run struct {
	env     *runEnv
	w       *workload
	seed    int64
	pool    []Batch
	queries []Query
	res     *Result
	cal     *calibrator

	// Per round: the deployment under load and what was acknowledged to it.
	round int
	dep   *deployment
	sent  [clientWorkers + 1][]uint32 // acknowledgements per pool batch; the last row is set-up

	// One entry per round.
	setups                    []float64
	rss                       []float64
	gameRSS                   float64 // this round's peak RSS when both games had played gameRSSRounds
	closed, jsonp, open, game []*phaseStats
	redirects, completed      int64 // phase C of a cluster, summed over the rounds
}

const (
	poolBatches = 4096 // pre-generated batches, cycled when a phase needs more
	poolQueries = 4096

	// rounds is how many times a run starts over on freshly spawned
	// processes. How fast one sketchd process runs is partly luck — where
	// its heap landed, how its threads were placed — and the luck lasts as
	// long as the process does. So the measured --seconds are split over
	// three processes: a metric pools the same phase of every round, and
	// server_rss_mb is the median over the rounds.
	rounds = 3

	// Set-ups are timed and torn down before the first round, so that
	// setup_s is the median of more than the rounds' three: at least two
	// more, and as many more — up to twelve — as fit in half a second. A
	// set-up of static tenants takes 15–50 ms, most of it process start,
	// and the median of five of those still moved by a quarter between
	// two sweeps of ten runs.
	minExtraSetups = 2
	maxExtraSetups = 12
	extraSetupTime = 500 * time.Millisecond
)

// runWorkload performs one full untraced run of w: three rounds of set up,
// drive the phases, check the outputs, tear down.
func runWorkload(ctx context.Context, env *runEnv, w *workload, seed int64, seconds float64) (*Result, error) {
	began := time.Now()
	r := &run{env: env, w: w, seed: seed, res: &Result{
		Workload: w.Name, Seed: seed, Seconds: seconds, Metrics: map[string]Spread{},
	}}
	r.pool, r.queries = generate(w, seed)
	r.cal = startCalibrator()
	defer r.cal.close()
	for i := range r.sent {
		r.sent[i] = make([]uint32, len(r.pool))
	}
	for began := time.Now(); len(r.setups) < minExtraSetups ||
		(len(r.setups) < maxExtraSetups && time.Since(began) < extraSetupTime); {
		t0 := time.Now()
		dep, err := r.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		dep.kill()
	}
	perRound := time.Duration(seconds * float64(time.Second) / rounds)
	for r.round = 0; r.round < rounds; r.round++ {
		if err := r.playRound(ctx, perRound); err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", w.Name, r.round+1, err)
		}
	}
	r.cal.close() // report reads the walks
	r.report()
	r.res.WallS = time.Since(began).Seconds()
	return r.res, nil
}

// playRound is one round: fresh processes, every phase for its share of
// dur, the checks, and the processes killed again.
func (r *run) playRound(ctx context.Context, dur time.Duration) error {
	for i := range r.sent {
		clear(r.sent[i])
	}
	t0 := time.Now()
	dep, err := r.setup(ctx)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	r.dep = dep
	defer dep.kill()

	share := func(f float64) time.Duration { return time.Duration(f * float64(dur)) }
	if r.w.Game {
		if err := r.phaseGame(ctx, dur); err != nil {
			return err
		}
	} else {
		// The fixed schedule goes first, so that it always meets the same
		// server — the set-up's, to the update — however fast the host is
		// today: where a switching tenant's drains fall in it is then a
		// matter of the seed alone. The closed loops follow and run for
		// their share of the time, whatever they get done in it.
		r.phaseOpen(ctx, share(r.w.OpenShare))
		r.closed = append(r.closed, r.phaseClosed(share(r.w.ClosedShare), false))
		if r.w.JSONShare > 0 {
			r.jsonp = append(r.jsonp, r.phaseClosed(share(r.w.JSONShare), true))
		}
	}
	if err := r.roundChecks(ctx); err != nil {
		return fmt.Errorf("checks: %w", err)
	}
	return nil
}

// report turns what the rounds measured into the run's metrics. Every
// timing of a timed phase is reported at the quiet host's speed: divided
// by — a rate multiplied by — the slowdown the calibrator measured during
// that very phase (calib.go). Set-up, recovery and the generator's own
// health are reported as measured.
func (r *run) report() {
	s := spreadOf(r.setups)
	s.Samples = uint64(len(r.setups))
	r.res.set("setup_s", s)
	s = spreadOf(r.rss)
	s.Samples = uint64(len(r.rss))
	r.res.set("server_rss_mb", s)

	fixed, fixedX := r.open, r.cal.slowdown(calOpen) // the fixed-schedule phase: phase C, or the game
	closedX := r.cal.slowdown(calClosed)
	if r.w.Game {
		fixed, fixedX = r.game, r.cal.slowdown(calGame)
		closedX = fixedX
		r.res.set("ingest_updates_per_s", rateOf(pick(r.game, writes)).scaled(fixedX))
		r.res.set("rounds_per_s", rateOf(pick(r.game, rounded)).scaled(fixedX))
		r.res.set("round_p50_ms", percentileOf(pick(r.game, rounded), 0.50).scaled(1/fixedX))
		r.res.set("round_p99_ms", percentileOf(pick(r.game, rounded), 0.99).scaled(1/fixedX))
	} else {
		r.res.set("ingest_updates_per_s", rateOf(pick(r.closed, writes)).scaled(closedX))
		if len(r.jsonp) > 0 {
			r.res.set("ingest_json_updates_per_s", rateOf(pick(r.jsonp, writes)).scaled(r.cal.slowdown(calJSON)))
		}
		var late Hist
		backlog := 0
		for _, p := range r.open {
			late.Merge(&p.late)
			backlog = max(backlog, p.backlogMax)
		}
		l99, _ := late.Quantile(0.99)
		r.res.setValue("client.late_ms_p99", l99/1e6)
		r.res.setValue("client.backlog_max", float64(backlog))
		if r.w.Nodes > 1 && r.completed > 0 {
			r.res.setValue("cluster.redirect_frac", float64(r.redirects)/float64(r.completed))
		}
	}
	r.res.setValue("host.slowdown_x", fixedX)
	r.res.setValue("host.slowdown_closed_x", closedX)
	r.res.set("ingest_p50_ms", percentileOf(pick(fixed, writes), 0.50).scaled(1/fixedX))
	r.res.set("ingest_p99_ms", percentileOf(pick(fixed, writes), 0.99).scaled(1/fixedX))
	r.res.set("query_p50_ms", percentileOf(pick(fixed, reads), 0.50).scaled(1/fixedX))
	r.res.set("query_p99_ms", percentileOf(pick(fixed, reads), 0.99).scaled(1/fixedX))
	r.res.set("server_cpu_us_per_req", cpuPerRequest(fixed).scaled(1/fixedX))
	cpu := 0.0
	for _, p := range fixed {
		cpu += p.clientCPU.Seconds()
	}
	r.res.setValue("client.cpu_s", cpu)
}

// setup starts the workload's nodes, waits until each answers healthz,
// declares the tenants and sends the preload; it returns once the preload
// is acknowledged.
func (r *run) setup(ctx context.Context) (*deployment, error) {
	w := r.w
	d := &deployment{replica: map[string]string{}}
	d.hc = newHTTPClient(clientWorkers, func() { d.redirects.Add(1) })
	addrs := make([]string, w.Nodes)
	urls := make([]string, w.Nodes)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i], urls[i] = a, "http://"+a
	}
	if w.Durable {
		dir, err := r.env.sb.TempDir("data")
		if err != nil {
			return nil, err
		}
		d.dataDir = dir
	}
	ok := false
	defer func() {
		if !ok {
			d.kill()
		}
	}()
	for i := range addrs {
		flags := append([]string(nil), w.ExtraFlags...)
		if w.Durable {
			flags = append(flags, "-data-dir", d.dataDir)
		}
		if w.Nodes > 1 {
			flags = append(flags, "-node", urls[i], "-peers", strings.Join(urls, ","))
		}
		d.nodeFlags = append(d.nodeFlags, flags)
		p, err := r.env.sb.Start(r.env.bin, addrs[i], flags...)
		if err != nil {
			return nil, err
		}
		d.procs = append(d.procs, p)
		d.clients = append(d.clients, client.New(p.URL, d.hc))
	}
	d.jsonc = client.New(d.procs[0].URL, d.hc, client.WithCodec(client.CodecJSON))
	hctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for i, p := range d.procs {
		if err := p.WaitHealthy(hctx, d.clients[i]); err != nil {
			return nil, err
		}
	}
	for _, t := range w.Tenants {
		if _, err := d.clients[0].CreateTenant(ctx, t.Key, t.Spec); err != nil {
			return nil, fmt.Errorf("create %s: %w", t.Key, err)
		}
		if w.Nodes > 1 {
			owner, replicas, err := placement(ctx, d.hc, urls[0], t.Key)
			if err != nil {
				return nil, err
			}
			i := slices.IndexFunc(replicas, func(u string) bool { return u != owner })
			if i < 0 {
				return nil, fmt.Errorf("placement of %s has no replica beside its owner: %v", t.Key, replicas)
			}
			d.replica[t.Key] = replicas[i]
		}
	}
	for i := 0; i < w.Preload; i++ {
		b := &r.pool[i]
		if err := d.clients[0].Update(ctx, w.Tenants[b.Tenant].Key, b.Updates); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		r.sent[clientWorkers][i]++
	}
	if w.Nodes > 1 {
		// A cluster is set up once every replica holds its tenants: a
		// global ?merge=all query folds the copy of the node it is asked of.
		if err := d.shipNow(ctx); err != nil {
			return nil, err
		}
	}
	ok = true
	return d, nil
}

// writeNode picks the node a write is posted to: node 0 on a single node,
// a uniformly random one — fixed by the seed — on a cluster, so about two
// thirds of the writes take the 307 hop.
func (r *run) writeNode(index int) int {
	if r.w.Nodes == 1 {
		return 0
	}
	return int(dist.SplitMix64(uint64(r.seed)<<20+uint64(index)) % uint64(r.w.Nodes))
}

// write sends pool batch idx and, once acknowledged, accounts it in the
// truth.
func (r *run) write(ctx context.Context, c *client.Client, worker, idx int) (int64, error) {
	b := &r.pool[idx]
	if err := c.Update(ctx, r.w.Tenants[b.Tenant].Key, b.Updates); err != nil {
		return 0, err
	}
	r.sent[worker][idx]++
	return int64(len(b.Updates)), nil
}

// read sends pre-generated query idx: /v2/query on a single node, the
// global /cluster/query asked of a replica — a node that does not own the
// key, so the answer takes the 307 hop, but holds it, so ?merge=all can
// fold — on a cluster.
func (r *run) read(ctx context.Context, idx int) (int64, error) {
	q := &r.queries[idx%len(r.queries)]
	key := r.w.Tenants[q.Tenant].Key
	var resp *server.QueryResponse
	var err error
	if r.w.Nodes == 1 {
		resp, err = r.dep.clients[0].Query(ctx, key, q.Queries)
	} else {
		mergeAll := r.w.MergeEvery > 0 && idx%r.w.MergeEvery == r.w.MergeEvery-1
		resp, err = clusterQuery(ctx, r.dep.hc, r.dep.replica[key], key, q.Queries, mergeAll)
	}
	if err != nil {
		return 0, err
	}
	if len(resp.Answers) != len(q.Queries) {
		return 0, fmt.Errorf("%d answers to %d queries on %s", len(resp.Answers), len(q.Queries), key)
	}
	return 1, nil
}

// roundBase spreads the rounds over the pool, so that no two rounds send
// the same batches.
func (r *run) roundBase() int { return r.w.Preload + r.round*len(r.pool)/rounds }

// closedCap is how many times its share of the time a closed loop that
// sends a fixed count may take before it gives up: a quiet host needs the
// share, a busy one up to two and a half times that.
const closedCap = 3

// phaseClosed is phases A and B: closed-loop ingest capacity, binary or
// JSON, over dur — or, on a workload with a ClosedRate, over the batches
// that rate would send in dur, however long they take.
func (r *run) phaseClosed(dur time.Duration, jsonCodec bool) *phaseStats {
	ctx := context.Background()
	base := r.roundBase()
	ph := calClosed
	if jsonCodec {
		base += len(r.pool) / 2
		ph = calJSON
	}
	n := 0
	if r.w.ClosedRate > 0 {
		n = int(float64(r.w.ClosedRate) * dur.Seconds())
		dur *= closedCap
	}
	defer r.cal.during(ph)()
	st := runClosed(dur, n, func(worker, seq int) (int64, error) {
		c := r.dep.clients[r.writeNode(seq)]
		if jsonCodec {
			c = r.dep.jsonc
		}
		return r.write(ctx, c, worker, (base+seq)%len(r.pool))
	})
	r.res.addPhase(st)
	return st
}

// phaseOpen is phase C: the fixed-schedule open loop, writes beside reads.
// A phase in which half the requests started more than a second after
// they were due did not offer the load it claims, and fails the run. One
// stall does not: a switching tenant's drain holds both connections for
// up to a second and a half on a busy host, the requests due meanwhile
// carry it in their latency, and the schedule is met again right after.
func (r *run) phaseOpen(ctx context.Context, dur time.Duration) {
	ops := genSchedule(r.seed+int64(r.round)<<32, r.w.WriteRate, r.w.ReadRate, dur)
	base := r.roundBase() + len(r.pool)/4
	reads := r.round * len(r.queries) / rounds
	before := r.dep.redirects.Load()
	defer r.cal.during(calOpen)()
	st := runOpen(ops, dur, r.dep.pids(), func(worker int, op Op) (int64, error) {
		if op.Read {
			return r.read(ctx, reads+op.Index)
		}
		return r.write(ctx, r.dep.clients[r.writeNode(op.Index)], worker, (base+op.Index)%len(r.pool))
	})
	r.res.addPhase(st)
	late, _ := st.late.Quantile(0.5)
	r.res.check("open loop kept its schedule", time.Duration(late) <= time.Second,
		"half the requests of round %d started more than %v after they were due", r.round+1, time.Duration(late))
	r.open = append(r.open, st)
	r.redirects += r.dep.redirects.Load() - before
	r.completed += int64(st.attempted - st.failed)
}
