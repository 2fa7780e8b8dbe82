package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/hash"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The ladder is the traced run: it replays a workload's own first batches
// and queries through each layer's exported API in this process, one rung
// at a time, recording a span per call. Every rung does the same work at
// its own height of the stack — apply one batch, then pass one flush
// barrier — so a layer's tax is its span minus the rungs below it on the
// same batch:
//
//	client.ingest ⊃ wire.encode, server.ingest ⊃ wire.decode, wal.append (durable), engine.update ⊃ robust.update ⊃ sketch.update ⊃ hash.eval
//
// It runs on one processor (GOMAXPROCS 1), so a span's wall time is the
// CPU its whole sub-stack burned, and every ladder tenant has one shard:
// sharding is parallelism, which a one-processor replay cannot show, and
// with one shard every rung's estimator sees the identical sequence of
// coalesced batches. That matters because a switching estimator pays for
// its trailing copies in one drain every 16384 updates — a stall hundreds
// of times the cost of an ordinary batch. With identical sequences the
// drain falls on the same batch in every rung and cancels in the
// subtraction; with the engine's private hash routing it would not.
const (
	ladderBatches = 2000
	ladderQueries = 2000
	// The replay stops early once a budget is spent; the sample count
	// printed beside each metric says how far it got.
	ladderIngestBudget = 8 * time.Second
	ladderQueryBudget  = 4 * time.Second
	singleItems        = 16 // updates per batch also fed one at a time, for robust.update_single_ns
	syncEvery          = 16 // batches between timed Log.Sync calls
	clusterReps        = 20
)

// ladderTenant holds one tenant's estimator stack at every height below
// the server.
type ladderTenant struct {
	def    tenantDef        // the workload's tenant, with one shard
	static sketch.Estimator // the policy-none twin
	robust sketch.Estimator // the tenant's own policy; nil for a static tenant
	single sketch.Estimator // robust only: fed one update at a time
	eng    *engine.Engine
	chunk  int // the engine's hand-off size: updates coalesced together
	points bool
}

func newLadderTenant(def tenantDef, cfg server.Config) (*ladderTenant, error) {
	def.Spec.Shards = 1
	lt := &ladderTenant{def: def, points: def.Spec.Sketch == "countsketch"}
	twin := def.Spec
	twin.Policy = "none"
	twin.FlipBudget = 0
	sc, err := server.EngineConfig(twin, cfg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	lt.static = sc.Factory(100)
	ec, err := server.EngineConfig(def.Spec, cfg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if def.robust() {
		lt.robust = ec.Factory(200)
		lt.single = ec.Factory(300)
	}
	lt.eng = engine.New(ec)
	lt.chunk = ec.Batch
	return lt, nil
}

// chunks cuts a request into the pieces a one-shard engine hands its
// worker — every chunk updates, the rest at the flush — each with its
// duplicates coalesced the way the worker coalesces them.
func chunks(us []client.Update, chunk int) [][]sketch.Update {
	var parts [][]sketch.Update
	for len(us) > 0 {
		n := min(chunk, len(us))
		part := make([]sketch.Update, 0, n)
		seen := make(map[uint64]int, n)
		for _, u := range us[:n] {
			if i, ok := seen[u.Item]; ok {
				part[i].Delta += u.Delta
				continue
			}
			seen[u.Item] = len(part)
			part = append(part, sketch.Update{Item: u.Item, Delta: u.Delta})
		}
		parts = append(parts, part)
		us = us[n:]
	}
	return parts
}

// apply is the estimator rung: the coalesced chunks in order, then the
// estimate a flush barrier would publish.
func apply(est sketch.Estimator, parts [][]sketch.Update) {
	bu, batched := est.(sketch.BatchUpdater)
	for _, part := range parts {
		if batched {
			bu.UpdateBatch(part)
			continue
		}
		for _, u := range part {
			est.Update(u.Item, u.Delta)
		}
	}
	_ = est.Estimate()
}

// sink is a reusable http.ResponseWriter that keeps only what the ladder
// reads back, so the server rung measures the handler, not a recorder.
type sink struct {
	header http.Header
	status int
	body   []byte
}

func (s *sink) Header() http.Header { return s.header }
func (s *sink) WriteHeader(c int)   { s.status = c }
func (s *sink) Write(b []byte) (int, error) {
	s.body = append(s.body, b...)
	return len(b), nil
}

func (s *sink) reset() {
	clear(s.header)
	s.status = http.StatusOK
	s.body = s.body[:0]
}

func newRequest(method, target, contentType, accept string, body []byte) *http.Request {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return req
}

// ladder is the state of one traced run.
type ladder struct {
	w       *workload
	tr      *Trace
	tenants []*ladderTenant
	direct  *server.Server // server rung: handler called without a socket
	remote  *server.Server // client rung: behind a loopback listener
	dhs     *httptest.Server
	rhs     *httptest.Server
	dh      http.Handler
	c       *client.Client
	out     sink
	log     *wal.Log
	logDir  string
	vals    map[string][]float64 // per-call values by metric name
	sums    map[string]float64

	// serverTax is, per replayed batch, what wire decode and the server's
	// own handler cost: the server span minus the engine (and log) below it.
	serverTax []float64
}

func (l *ladder) add(name string, v float64) { l.vals[name] = append(l.vals[name], v) }

// serve calls the direct server's handler and fails on a non-200.
func (l *ladder) serve(req *http.Request) error {
	l.out.reset()
	l.dh.ServeHTTP(&l.out, req)
	if l.out.status != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, l.out.status, bytes.TrimSpace(l.out.body))
	}
	return nil
}

func (l *ladder) close() {
	for _, t := range l.tenants {
		t.eng.Close()
	}
	l.dhs.Close()
	l.rhs.Close()
	_ = l.direct.Shutdown() // scratch servers: nothing outlives the run
	_ = l.remote.Shutdown()
	if l.log != nil {
		_ = l.log.Close()
	}
}

// runLadder replays w's own batches and queries rung by rung, adds the
// per-layer metrics to res and writes out/<workload>.trace.json.
func runLadder(env *runEnv, w *workload, seed int64, res *Result) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	pool, queries := generate(w, seed)
	batches := pool[:ladderBatches]
	if w.Game {
		// The game never sends a batch: its unit of work is one update and
		// one published estimate, so that is what its ladder replays.
		batches = make([]Batch, ladderBatches)
		for i := range batches {
			src := pool[i/batchSize].Updates
			batches[i] = Batch{Tenant: i % len(w.Tenants), Updates: src[i%batchSize : i%batchSize+1]}
		}
	}

	cfg := baseConfig()
	l := &ladder{w: w, tr: newTrace(12 * (ladderBatches + ladderQueries)), vals: map[string][]float64{}, sums: map[string]float64{}}
	l.out.header = http.Header{}
	for _, def := range w.Tenants {
		lt, err := newLadderTenant(def, cfg)
		if err != nil {
			return err
		}
		l.tenants = append(l.tenants, lt)
	}
	dcfg := cfg
	if w.Durable {
		dir, err := env.sb.TempDir("ladder-data")
		if err != nil {
			return err
		}
		dcfg.DataDir, dcfg.Fsync, dcfg.CheckpointEvery = dir, "batch", 131072
	}
	var err error
	if l.direct, err = server.Open(dcfg); err != nil {
		return err
	}
	l.remote = server.New(cfg)
	l.dh = l.direct.Handler()
	l.dhs = httptest.NewServer(l.dh)
	l.rhs = httptest.NewServer(l.remote.Handler())
	defer l.close()
	l.c = client.New(l.rhs.URL, newHTTPClient(1, nil))
	dc := client.New(l.dhs.URL, newHTTPClient(1, nil))
	for _, t := range l.tenants {
		def := t.def
		for _, c := range []*client.Client{l.c, dc} {
			if _, err := c.CreateTenant(ctx, def.Key, def.Spec); err != nil {
				return err
			}
		}
		if w.JSONShare > 0 {
			if _, err := dc.CreateTenant(ctx, def.Key+"-json", def.Spec); err != nil {
				return err
			}
		}
	}
	if l.logDir, err = env.sb.TempDir("ladder-wal"); err != nil {
		return err
	}
	if l.log, err = wal.Open(l.logDir, wal.Options{Fsync: wal.FsyncNone}); err != nil {
		return err
	}

	if err := l.ingest(ctx, batches); err != nil {
		return err
	}
	if err := l.query(ctx, queries[:ladderQueries]); err != nil {
		return err
	}
	if err := l.walRungs(); err != nil {
		return err
	}
	if err := l.clusterRungs(); err != nil {
		return err
	}
	l.report(res)
	loc, err := nontestGoLines(env.root)
	if err != nil {
		return err
	}
	res.setValue("repo.nontest_go_loc", float64(loc))
	return l.tr.write(filepath.Join(outDir, w.Name+".trace.json"), w.Name, seed)
}

// ingest replays the batches through every ingest rung.
func (l *ladder) ingest(ctx context.Context, batches []Batch) error {
	rng := rand.New(rand.NewSource(1))
	poly := hash.NewPoly(4, rng)
	tab := hash.NewTabulation(rng)
	var hashSink uint64
	var frame, encBuf []byte
	var decoded []wire.Update
	type ids struct{ client, server, engine, robust, sketch int }
	var spans []ids
	var sizes []int
	var decodeNS []int64
	var ms0, ms1 runtime.MemStats
	deadline := time.Now().Add(ladderIngestBudget)

	for b := range batches {
		if time.Now().After(deadline) {
			break
		}
		bt := &batches[b]
		t := l.tenants[bt.Tenant]
		key, us, n := t.def.Key, bt.Updates, float64(len(bt.Updates))
		at := func(i int) wire.Update { return wire.Update{Item: us[i].Item, Delta: us[i].Delta} }
		frame = wire.AppendUpdatesFunc(frame[:0], len(us), at)
		parts := chunks(us, t.chunk)
		var id ids

		id.client = l.tr.Begin("client.ingest", b, -1)
		if err := l.c.Update(ctx, key, us); err != nil {
			return err
		}
		if _, err := l.c.Estimate(ctx, key); err != nil {
			return err
		}
		l.tr.End(id.client)

		e := l.tr.Begin("wire.encode", b, id.client)
		encBuf = wire.AppendUpdatesFunc(encBuf[:0], len(us), at)
		l.add("wire.encode_ns", float64(l.tr.End(e))/n)
		l.add("wire.bytes_per_update", float64(len(frame))/n)

		post := newRequest(http.MethodPost, "/v2/update?key="+key, wire.ContentType, "", frame)
		get := newRequest(http.MethodGet, "/v1/estimate?key="+key, "", "", nil)
		countAllocs := b%10 == 0
		if countAllocs {
			runtime.ReadMemStats(&ms0)
		}
		id.server = l.tr.Begin("server.ingest", b, id.client)
		if err := l.serve(post); err != nil {
			return err
		}
		if err := l.serve(get); err != nil {
			return err
		}
		l.tr.End(id.server)
		if countAllocs {
			runtime.ReadMemStats(&ms1)
			l.add("server.ingest_allocs_per_batch", float64(ms1.Mallocs-ms0.Mallocs))
		}

		d := l.tr.Begin("wire.decode", b, id.server)
		var err error
		if decoded, err = wire.DecodeUpdates(frame, decoded[:0]); err != nil {
			return err
		}
		decodeNS = append(decodeNS, l.tr.End(d))
		l.add("wire.decode_ns", float64(decodeNS[len(decodeNS)-1])/n)

		walParent := -1
		if l.w.Durable {
			walParent = id.server
		}
		a := l.tr.Begin("wal.append", b, walParent)
		if _, err := l.log.Append(wal.Record{Kind: wal.KindUpdate, Key: key, Data: frame}); err != nil {
			return err
		}
		l.add("wal.append_ns", float64(l.tr.End(a))/n)
		l.sums["wal.frame_bytes"] += float64(len(frame))
		l.sums["wal.updates"] += n
		if b%syncEvery == syncEvery-1 {
			s := l.tr.Begin("wal.sync", b, -1)
			if err := l.log.Sync(); err != nil {
				return err
			}
			l.add("wal.sync_us", float64(l.tr.End(s))/1e3)
		}

		id.engine = l.tr.Begin("engine.update", b, id.server)
		for _, u := range us {
			t.eng.Update(u.Item, u.Delta)
		}
		_ = t.eng.Estimate()
		l.tr.End(id.engine)

		id.robust = -1
		sketchParent := id.engine
		if t.robust != nil {
			id.robust = l.tr.Begin("robust.update", b, id.engine)
			apply(t.robust, parts)
			l.tr.End(id.robust)
			sketchParent = id.robust

			k := min(singleItems, len(us))
			s := l.tr.Begin("robust.update_single", b, -1)
			for _, u := range us[:k] {
				t.single.Update(u.Item, u.Delta)
				_ = t.single.Estimate()
			}
			l.add("robust.update_single_ns", float64(l.tr.End(s))/float64(k))
		}
		id.sketch = l.tr.Begin("sketch.update", b, sketchParent)
		apply(t.static, parts)
		l.tr.End(id.sketch)

		h := l.tr.Begin("hash.eval", b, id.sketch)
		for _, u := range us {
			_, bucket := poly.SignBucket(u.Item, 1024)
			hashSink += uint64(bucket) + tab.Eval(u.Item)
		}
		l.add("hash.eval_ns", float64(l.tr.End(h))/n)

		if l.w.JSONShare > 0 {
			body, err := json.Marshal(server.UpdateRequest{Updates: us})
			if err != nil {
				return err
			}
			jpost := newRequest(http.MethodPost, "/v1/update?key="+key+"-json", "application/json", "", body)
			jget := newRequest(http.MethodGet, "/v1/estimate?key="+key+"-json", "", "", nil)
			if countAllocs {
				runtime.ReadMemStats(&ms0)
			}
			j := l.tr.Begin("server.ingest_json", b, -1)
			if err := l.serve(jpost); err != nil {
				return err
			}
			if err := l.serve(jget); err != nil {
				return err
			}
			l.add("server.ingest_json_ns", float64(l.tr.End(j))/n)
			if countAllocs {
				runtime.ReadMemStats(&ms1)
				l.add("server.ingest_json_allocs_per_batch", float64(ms1.Mallocs-ms0.Mallocs))
			}
		}
		spans = append(spans, id)
		sizes = append(sizes, len(us))
	}
	_ = hashSink // keeps the hash loop from being optimised away

	self := l.tr.SelfTimes()
	sp := l.tr.Spans
	for i, id := range spans {
		n := float64(sizes[i])
		l.add("client.ingest_ns", float64(sp[id.client].dur())/n)
		l.add("client.self_ingest_ns", float64(self[id.client])/n)
		l.add("server.ingest_ns", float64(sp[id.server].dur())/n)
		l.add("server.self_ingest_ns", float64(self[id.server])/n)
		l.add("engine.update_ns", float64(sp[id.engine].dur())/n)
		l.add("engine.self_update_ns", float64(self[id.engine])/n)
		l.add("sketch.update_ns", float64(sp[id.sketch].dur())/n)
		l.sums["server.ingest"] += float64(sp[id.server].dur())
		l.serverTax = append(l.serverTax, float64(self[id.server]+decodeNS[i]))
		if id.robust >= 0 {
			l.add("robust.update_ns", float64(sp[id.robust].dur())/n)
			l.add("robust.self_update_ns", float64(self[id.robust])/n)
			l.add("robust.tax_x", float64(sp[id.robust].dur())/float64(max(sp[id.sketch].dur(), 1)))
			l.sums["robust.self"] += float64(self[id.robust])
		}
	}
	return nil
}

// estimatorQuery is the estimator rung of one query call.
func estimatorQuery(est sketch.Estimator, items []uint64, k int) {
	_ = est.Estimate()
	if pq, ok := est.(sketch.PointQuerier); ok {
		for _, it := range items {
			_ = pq.Query(it)
		}
	}
	if tk, ok := est.(sketch.TopKQuerier); ok && k > 0 {
		_ = tk.TopK(k)
	}
}

// query replays the query calls through every read rung. Metrics are
// named after the kind of the call: estimate, point (per call of
// pointItems coordinates, per item at the sketch), topk.
func (l *ladder) query(ctx context.Context, queries []Query) error {
	var frame, ansBuf []byte
	deadline := time.Now().Add(ladderQueryBudget)
	for i := range queries {
		if time.Now().After(deadline) {
			break
		}
		q := &queries[i]
		t := l.tenants[q.Tenant]
		key := t.def.Key
		kind := q.Queries[0].Kind
		var items []uint64
		k := 0
		wq := wire.QueryRequest{Key: key}
		for _, one := range q.Queries {
			switch one.Kind {
			case server.QueryPoint:
				items = append(items, uint64(one.Item))
				wq.Queries = append(wq.Queries, wire.Query{Kind: wire.KindPoint, Item: uint64(one.Item)})
			case server.QueryTopK:
				k = one.K
				wq.Queries = append(wq.Queries, wire.Query{Kind: wire.KindTopK, K: one.K})
			default:
				wq.Queries = append(wq.Queries, wire.Query{Kind: wire.KindEstimate})
			}
		}
		frame = wire.AppendQuery(frame[:0], &wq)
		id := ladderBatches + i

		cq := l.tr.Begin("client.query", id, -1)
		if _, err := l.c.Query(ctx, key, q.Queries); err != nil {
			return err
		}
		l.add("client.query_us", float64(l.tr.End(cq))/1e3)

		req := newRequest(http.MethodPost, "/v2/query", wire.ContentType, wire.ContentType, frame)
		sq := l.tr.Begin("server.query_"+kind, id, cq)
		if err := l.serve(req); err != nil {
			return err
		}
		l.add("server.query_"+kind+"_us", float64(l.tr.End(sq))/1e3)

		ans, err := wire.DecodeAnswer(l.out.body)
		if err != nil {
			return err
		}
		ae := l.tr.Begin("wire.answer_encode", id, sq)
		ansBuf = wire.AppendAnswer(ansBuf[:0], ans)
		l.add("wire.answer_encode_ns", float64(l.tr.End(ae)))

		eq := l.tr.Begin("engine."+kind, id, sq)
		if _, _, _, err := t.eng.QueryBatch(items, k); err != nil {
			return err
		}
		l.add("engine."+kind+"_us", float64(l.tr.End(eq))/1e3)

		parent := eq
		if t.robust != nil {
			rq := l.tr.Begin("robust."+kind, id, eq)
			estimatorQuery(t.robust, items, k)
			if d := l.tr.End(rq); kind == server.QueryTopK {
				l.add("robust.topk_us", float64(d)/1e3)
			}
			parent = rq
		}
		kq := l.tr.Begin("sketch."+kind, id, parent)
		estimatorQuery(t.static, items, k)
		d := float64(l.tr.End(kq))
		switch kind {
		case server.QueryPoint:
			l.add("sketch.point_ns", d/float64(len(items)))
		case server.QueryTopK:
			l.add("sketch.topk_us", d/1e3)
		default:
			l.add("sketch.estimate_ns", d)
		}

		fl := l.tr.Begin("engine.flush", id, -1)
		t.eng.Flush()
		l.add("engine.flush_us", float64(l.tr.End(fl))/1e3)
	}
	return nil
}

// walRungs prices what the ingest replay left in the scratch log: replay,
// bytes on disk, and a checkpoint of every tenant's real envelope.
func (l *ladder) walRungs() error {
	if err := l.log.Sync(); err != nil {
		return err
	}
	var replayed int
	var scratch []wire.Update
	r := l.tr.Begin("wal.replay", -1, -1)
	err := l.log.Replay(func(_ uint64, rec wal.Record) error {
		us, err := wire.DecodeUpdates(rec.Data, scratch[:0])
		scratch = us
		replayed += len(us)
		return err
	})
	d := l.tr.End(r)
	if err != nil {
		return err
	}
	if replayed > 0 {
		l.add("wal.replay_ns", float64(d)/float64(replayed))
	}
	var logBytes int64
	segs, err := filepath.Glob(filepath.Join(l.logDir, "seg-*.wal"))
	if err != nil {
		return err
	}
	for _, seg := range segs {
		st, err := os.Stat(seg)
		if err != nil {
			return err
		}
		logBytes += st.Size()
	}
	if l.sums["wal.updates"] > 0 {
		l.add("wal.bytes_per_update", float64(logBytes)/l.sums["wal.updates"])
		l.add("wal.write_amp", float64(logBytes)/l.sums["wal.frame_bytes"])
	}
	for _, t := range l.tenants {
		sh, err := l.direct.ShipTenant(t.def.Key)
		if err != nil {
			return err
		}
		ck := wal.Checkpoint{Key: t.def.Key, LSN: l.log.HeadLSN(), Spec: sh.Spec, State: sh.State, Mass: sh.Mass, Deleted: sh.Deleted}
		c := l.tr.Begin("wal.checkpoint", -1, -1)
		if err := wal.WriteCheckpoint(l.logDir, ck); err != nil {
			return err
		}
		l.add("wal.checkpoint_ms", float64(l.tr.End(c))/1e6)
	}
	return nil
}

// clusterRungs prices replication of every mergeable tenant: building a
// shipment on the owner, applying it on a replica, and answering a global
// query from three folded envelopes.
func (l *ladder) clusterRungs() error {
	for _, t := range l.tenants {
		if t.def.robust() {
			continue // robust tenants ship their declaration only
		}
		req := &server.QueryRequest{Key: t.def.Key, Queries: []server.Query{{Kind: server.QueryEstimate}}}
		if t.points {
			req.Queries = append(req.Queries, server.Query{Kind: server.QueryTopK, K: topK})
		}
		for i := 0; i < clusterReps; i++ {
			b := l.tr.Begin("cluster.ship_build", -1, -1)
			sh, err := l.direct.ShipTenant(t.def.Key)
			l.add("cluster.ship_build_us", float64(l.tr.End(b))/1e3)
			if err != nil {
				return err
			}
			l.add("cluster.ship_bytes", float64(len(sh.Spec)+len(sh.State)))
			a := l.tr.Begin("cluster.ship_apply", -1, -1)
			err = l.remote.ApplyShipment(t.def.Key, sh.Spec, sh.State, sh.Mass, sh.Deleted)
			l.add("cluster.ship_apply_us", float64(l.tr.End(a))/1e3)
			if err != nil {
				return err
			}
			m := l.tr.Begin("cluster.merged_answer", -1, -1)
			_, _, err = l.direct.AnswerMerged(req, [][]byte{sh.State, sh.State, sh.State})
			l.add("cluster.merged_answer_us", float64(l.tr.End(m))/1e3)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// report turns the per-call values into per-layer metrics: medians over
// the replayed calls, sums for sizes and CPU shares.
func (l *ladder) report(res *Result) {
	for name, vals := range l.vals {
		if name == "wal.sync_us" {
			continue
		}
		s := spreadOf(vals)
		s.Samples = uint64(len(vals))
		res.set(name, s)
	}
	if syncs := l.vals["wal.sync_us"]; len(syncs) > 0 {
		var h Hist
		for _, us := range syncs {
			h.Record(int64(us * 1e3))
		}
		p50, _ := h.Quantile(0.50)
		p99, beyond := h.Quantile(0.99)
		res.set("wal.sync_us_p50", Spread{Median: p50 / 1e3, Samples: h.Count()})
		res.set("wal.sync_us_p99", Spread{Median: p99 / 1e3, Samples: h.Count(), LowTail: beyond < tailMinBeyond})
	}
	var staticBytes, robustBytes, twinBytes float64
	for _, t := range l.tenants {
		b := float64(t.static.SpaceBytes())
		staticBytes += b
		if t.robust != nil {
			twinBytes += b
			robustBytes += float64(t.robust.SpaceBytes())
		}
	}
	res.setValue("sketch.state_bytes", staticBytes)
	res.setValue("robust.state_bytes", robustBytes)
	if twinBytes > 0 {
		res.setValue("robust.space_ratio", robustBytes/twinBytes)
	}
	if total := l.sums["server.ingest"]; total > 0 {
		// The robust share is a ratio of sums: a switching tenant's drains
		// are robust-layer work and most of its CPU, and with identical
		// sequences they fall on the same batch in both rungs. The server's
		// own tax is a few microseconds a batch, far below the jitter of a
		// drain, so it is priced as its median times the batches replayed.
		res.setValue("robust.cpu_share", 100*l.sums["robust.self"]/total)
		res.setValue("server.cpu_share", 100*median(l.serverTax)*float64(len(l.serverTax))/total)
	}
}

// nontestGoLines counts the lines of non-test Go source outside the
// benchmark's own directory.
func nontestGoLines(root string) (int, error) {
	lines := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || path == filepath.Join(root, "bench")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += bytes.Count(data, []byte("\n"))
		return nil
	})
	return lines, err
}
