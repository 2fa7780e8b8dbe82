package server

// A model-checked single node. A seeded generator (or the fuzzer's bytes)
// draws a sequence of operations against one durable server: declarations
// over random registry cells, updates in both codecs, every query kind,
// snapshot, merge, shipment to a second server, delete and re-create,
// drain, Shutdown then Open, and two kinds of crash. Beside the server runs
// a twin: for every tenant an in-memory engine built exactly as the server
// builds one, fed every acknowledged batch as one Apply, and every merged
// snapshot as one fold, with its mass and deleted mass counted from the
// acknowledged batches. Every answer, (estimate, switches) included, every
// snapshot, every shipment's replica and every stats entry must be
// bit-equal to the twin's, and the log must hold exactly the acknowledged
// records.
//
// A clean crash abandons the server without Shutdown, copies its data
// directory and opens the copy: nothing acknowledged may be lost. A torn
// crash also cuts the copy's newest segment at a random byte. Which tenant
// each key then holds follows from the records that survived and the
// checkpoints on disk, a robust twin replays only the batches whose records
// survived, and a static twin folds the recovered snapshot and counts the
// batches its checkpoint or the surviving records hold.
//
// A failing sequence is shrunk by dropping operations while it still fails,
// and printed as a Go test body.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/wal"
	"repro/internal/waltest"
	"repro/internal/wire"
)

var (
	modelSeeds = flag.Int("model.seeds", 120, "TestModel: how many seeded sequences to check")
	modelFirst = flag.Int64("model.first", 1, "TestModel: the first seed")
)

// modelSteps is the length of a generated sequence.
const modelSteps = 48

type opKind uint8

const (
	opCreate    opKind = iota // POST /v2/keys
	opUpdate                  // codec 0: /v1/update JSON, 1: /v2/update JSON, 2: /v2/update frame
	opQuery                   // POST /v2/query; codec bit 0: frame request, bit 1: frame answer
	opEstimate                // GET /v1/estimate
	opSnapshot                // GET /v1/snapshot
	opMerge                   // POST /v1/merge of a same-seed donor fed us
	opDelete                  // DELETE /v1/keys
	opStats                   // GET /v1/stats
	opDrain                   // Server.Drain
	opRestart                 // Shutdown, then Open on the same directory
	opCrash                   // abandon the server, copy the directory, Open the copy
	opTornCrash               // opCrash, cutting the copy's newest segment at cut/65536 of its bytes
	opShip                    // ShipTenant, then ApplyShipment into a second, in-memory server
)

var opNames = [...]string{"opCreate", "opUpdate", "opQuery", "opEstimate", "opSnapshot", "opMerge",
	"opDelete", "opStats", "opDrain", "opRestart", "opCrash", "opTornCrash", "opShip"}

func (k opKind) String() string { return opNames[k] }

// modelOp is one step of a sequence; fields its kind does not use are zero.
type modelOp struct {
	kind  opKind
	key   string
	spec  TenantSpec
	us    []wire.Update
	qs    []Query
	codec int
	cut   int
}

// modelConfig is the server configuration a sequence runs under.
type modelConfig struct {
	fsync     string
	shards    int
	maxKeys   int
	ckptEvery int
	seed      int64
}

func (mc modelConfig) server(dir string) Config {
	return Config{
		MaxKeys: mc.maxKeys, Shards: mc.shards, Eps: 0.5, Delta: 0.1, N: 1 << 16, Seed: mc.seed,
		FlipBudget: 6, DataDir: dir, Fsync: mc.fsync, CheckpointEvery: mc.ckptEvery,
	}
}

// choices is where a generator's decisions come from: a seeded source for
// TestModel, the fuzzer's bytes for FuzzModel.
type choices interface {
	intn(n int) int
	done() bool
}

type randChoices struct{ *rand.Rand }

func (r randChoices) intn(n int) int { return r.Intn(n) }
func (randChoices) done() bool       { return false }

// byteChoices reads each choice from the next byte, or two when n exceeds
// 256; an exhausted input reads zeros and ends the sequence.
type byteChoices struct{ b []byte }

func (c *byteChoices) intn(n int) int {
	v := 0
	for width := 1; width < n; width <<= 8 {
		if len(c.b) > 0 {
			v = v<<8 | int(c.b[0])
			c.b = c.b[1:]
		}
	}
	return v % n
}

func (c *byteChoices) done() bool { return len(c.b) == 0 }

var modelKeys = []string{"a", "b", "c", "d"}

func genConfig(c choices) modelConfig {
	return modelConfig{
		fsync:     []string{"always", "batch", "none"}[c.intn(3)],
		shards:    1 + c.intn(2),
		maxKeys:   2 + c.intn(3),
		ckptEvery: []int{16, 64, 256}[c.intn(3)],
		seed:      int64(1 + c.intn(1000)),
	}
}

func genOps(c choices, n int) []modelOp {
	var ops []modelOp
	for len(ops) < n && !c.done() {
		op := genOp(c)
		if len(ops) > 0 && c.intn(2) == 0 {
			op.key = ops[len(ops)-1].key // a client works one key for a while
		}
		ops = append(ops, op)
	}
	return ops
}

func genOp(c choices) modelOp {
	op := modelOp{key: modelKeys[c.intn(len(modelKeys))]}
	switch r := c.intn(100); {
	case r < 14:
		op.kind, op.spec = opCreate, genSpec(c)
	case r < 44:
		op.kind, op.us, op.codec = opUpdate, genUpdates(c), c.intn(3)
	case r < 59:
		op.kind, op.qs, op.codec = opQuery, genQueries(c), c.intn(4)
	case r < 62:
		op.kind = opEstimate
	case r < 67:
		op.kind = opSnapshot
	case r < 72:
		op.kind, op.us = opMerge, genUpdates(c)
	case r < 77:
		op.kind = opShip
	case r < 83:
		op.kind = opDelete
	case r < 86:
		op.kind = opStats
	case r < 88:
		op.kind = opDrain
	case r < 93:
		op.kind = opRestart
	case r < 97:
		op.kind = opCrash
	default:
		op.kind, op.cut = opTornCrash, c.intn(1<<16)
	}
	return op
}

// genSpec draws a registry cell: any sketch under any policy and stream
// model, so invalid cells (a 400) come up too, and now and then an ε whose
// projected state no tenant may hold.
func genSpec(c choices) TenantSpec {
	ts := TenantSpec{
		Sketch: []string{"f2", "kmv", "countsketch", "cc"}[c.intn(4)],
		Policy: []string{"none", "none", "none", "switching", "ring", "paths"}[c.intn(6)],
		Model:  []string{"insertion", "insertion", "insertion", "turnstile", "bounded_deletion"}[c.intn(5)],
	}
	if ts.Model == "bounded_deletion" {
		ts.Alpha = 2
	}
	if c.intn(20) == 0 {
		ts.Eps = 1e-5 // past MaxTenantStateBytes
	}
	return ts
}

func genUpdates(c choices) []wire.Update {
	us := make([]wire.Update, 1+c.intn(40))
	for i := range us {
		us[i] = wire.Update{Item: uint64(c.intn(64)), Delta: int64(1 + c.intn(3))}
		if c.intn(12) == 0 {
			us[i].Item |= 1 << 60 // past 2⁵³: a string on the JSON wire
		}
		if c.intn(10) == 0 {
			us[i].Delta = -us[i].Delta
		}
	}
	return us
}

func genQueries(c choices) []Query {
	qs := make([]Query, 1+c.intn(3))
	for i := range qs {
		switch c.intn(3) {
		case 0:
			qs[i] = Query{Kind: QueryEstimate}
		case 1:
			qs[i] = Query{Kind: QueryPoint, Item: U64(c.intn(64))}
		default:
			qs[i] = Query{Kind: QueryTopK, K: 1 + c.intn(8)}
		}
	}
	return qs
}

// An incarnation is one declaration of a key, from its create record on.
type incarnation struct {
	key  string
	raw  TenantSpec
	sp   spec
	ts   TenantSpec
	twin *tenant
	// lost holds the acknowledged batches a cut took from the log that the
	// incarnation's checkpoint still holds: recovery counts them again.
	lost [][]wire.Update
}

// era: from log position from on, the key holds inc (nil: nothing).
type era struct {
	from uint64
	inc  *incarnation
}

// logEntry is a record the log must hold, and the incarnation it belongs to.
type logEntry struct {
	rec wal.Record
	inc *incarnation
}

type modelRun struct {
	tb       testing.TB
	mc       modelConfig
	cfg      Config
	dir      string
	srv      *Server
	h        http.Handler
	draining bool
	log      []logEntry // by LSN, from 1
	eras     map[string][]era
	replica  *Server // in memory: where opShip applies its shipments
	// others counts the engine workers and WAL sync loops at the last Open
	// that are neither the server's nor the twins'.
	others [2]int
}

// twinEngine is the engine the server runs for a tenant of (sp, ts) at key.
func twinEngine(sp spec, ts TenantSpec, key string) *engine.Engine {
	return engine.New(sp.engineConfig(ts, tenantSeed(ts.Seed, key)))
}

func newTwin(inc *incarnation) {
	inc.twin = &tenant{key: inc.key, spec: inc.sp, ts: inc.ts, eng: twinEngine(inc.sp, inc.ts, inc.key)}
}

// count adds an acknowledged batch to the twin's mass and deleted mass.
func (inc *incarnation) count(us []wire.Update) {
	for _, u := range us {
		inc.twin.mass.Add(u.Delta)
		inc.twin.deleted.Add(max(-u.Delta, 0))
	}
}

// ack feeds the twin an acknowledged batch: one Apply, and its count.
func (inc *incarnation) ack(us []wire.Update) {
	inc.twin.eng.Apply(us)
	inc.count(us)
}

// runModel plays ops against a fresh server and its twin, then crashes it,
// and returns the first violation.
func runModel(tb testing.TB, mc modelConfig, ops []modelOp) error {
	m := &modelRun{tb: tb, mc: mc, eras: make(map[string][]era), replica: New(mc.server(""))}
	defer m.close()
	if err := m.open(filepath.Join(tb.TempDir(), "data")); err != nil {
		return err
	}
	for i, op := range ops {
		if err := m.step(op); err != nil {
			return fmt.Errorf("op %d (%s %q): %w", i, op.kind, op.key, err)
		}
		if got, want := m.srv.Keys(), m.liveKeys(); !slices.Equal(got, want) {
			return fmt.Errorf("op %d (%s %q): server holds keys %v, the model %v", i, op.kind, op.key, got, want)
		}
	}
	// Every sequence ends in a crash: what it left on disk must recover.
	if err := m.crash(modelOp{kind: opCrash}); err != nil {
		return fmt.Errorf("final crash: %w", err)
	}
	return nil
}

func (m *modelRun) close() {
	if m.srv != nil {
		m.abandon()
	}
	m.replica.Drain()
	for _, inc := range m.liveIncs() {
		inc.twin.eng.Close()
	}
}

// abandon stops a server without Shutdown, after its directory was copied:
// the engines close and the log's descriptors and lock go.
func (m *modelRun) abandon() {
	m.srv.Drain()
	m.srv.wal.Close()
	m.srv = nil
}

func (m *modelRun) open(dir string) error {
	m.others = workers()
	m.others[0] -= m.ownShards()
	srv, err := Open(m.mc.server(dir))
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	m.dir, m.srv, m.h, m.cfg, m.draining = dir, srv, srv.Handler(), srv.cfg, false
	return nil
}

func (m *modelRun) live(key string) *incarnation {
	es := m.eras[key]
	if len(es) == 0 {
		return nil
	}
	return es[len(es)-1].inc
}

func (m *modelRun) liveKeys() []string {
	keys := []string{}
	for key := range m.eras {
		if m.live(key) != nil {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	return keys
}

func (m *modelRun) liveIncs() []*incarnation {
	var incs []*incarnation
	for _, key := range m.liveKeys() {
		incs = append(incs, m.live(key))
	}
	return incs
}

// ownShards counts the engine workers the model runs itself: its twins' and
// its replica's.
func (m *modelRun) ownShards() int {
	n := 0
	for _, inc := range m.liveIncs() {
		n += inc.twin.eng.Shards()
	}
	for _, t := range m.replica.tenantList() {
		n += t.eng.Shards()
	}
	return n
}

// appendRecord notes a record the server acknowledged and returns its LSN.
func (m *modelRun) appendRecord(kind wal.Kind, key string, data []byte, inc *incarnation) uint64 {
	m.log = append(m.log, logEntry{wal.Record{Kind: kind, Key: key, Data: data}, inc})
	return uint64(len(m.log))
}

func (m *modelRun) do(method, url string, body []byte, ct, accept string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, url, bytes.NewReader(body))
	if ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	w := httptest.NewRecorder()
	m.h.ServeHTTP(w, req)
	return w
}

// status checks a reply's code, and that every refusal is a JSON error.
func status(w *httptest.ResponseRecorder, want int) error {
	if w.Code != want {
		return fmt.Errorf("HTTP %d (%s), want %d", w.Code, bytes.TrimSpace(w.Body.Bytes()), want)
	}
	if want >= 400 {
		var e map[string]any
		if json.Unmarshal(w.Body.Bytes(), &e) != nil || len(e) != 1 || e["error"] == nil {
			return fmt.Errorf("HTTP %d body %s, want {\"error\": …}", w.Code, w.Body.Bytes())
		}
	}
	return nil
}

func sameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s:\n server %q\n twin   %q", what, got, want)
	}
	return nil
}

func (m *modelRun) step(op modelOp) error {
	switch op.kind {
	case opCreate:
		return m.create(op)
	case opUpdate:
		return m.update(op)
	case opQuery:
		return m.query(op.key, op.qs, op.codec)
	case opEstimate:
		return m.estimate(op.key)
	case opSnapshot:
		return m.snapshot(op.key)
	case opMerge:
		return m.merge(op)
	case opDelete:
		return m.delete(op.key)
	case opStats:
		return m.stats()
	case opDrain:
		m.srv.Drain()
		m.draining = true
		return nil
	case opRestart:
		return m.restart()
	case opShip:
		return m.ship(op.key)
	default:
		return m.crash(op)
	}
}

// flush publishes the mass, space and flip counts of the key's tenant and
// of its twin, which stats read without flushing.
func (m *modelRun) flush(key string) {
	if t := m.srv.lookup(key); t != nil {
		t.eng.Flush()
	}
	if live := m.live(key); live != nil {
		live.twin.eng.Flush()
	}
}

func (m *modelRun) create(op modelOp) error {
	m.flush(op.key)
	body, _ := json.Marshal(CreateTenantRequest{Key: op.key, Spec: op.spec})
	w := m.do(http.MethodPost, "/v2/keys", body, "application/json", "")
	live := m.live(op.key)
	sp, ts, rerr := resolve(op.spec, m.cfg)
	want := http.StatusOK
	switch {
	case live != nil && op.spec == live.raw:
	case live != nil && rerr != nil, live == nil && !m.draining && rerr != nil:
		want = http.StatusBadRequest
	case live != nil:
		want = http.StatusConflict
	case m.draining:
		want = http.StatusServiceUnavailable
	case len(m.liveKeys()) >= m.cfg.MaxKeys:
		want = http.StatusInsufficientStorage
	}
	if err := status(w, want); err != nil {
		return err
	}
	if want == http.StatusBadRequest && strings.Contains(rerr.Error(), "MaxTenantStateBytes") &&
		!strings.Contains(w.Body.String(), "MaxTenantStateBytes") {
		return fmt.Errorf("oversized spec refused with %s, not by MaxTenantStateBytes", w.Body.Bytes())
	}
	if want != http.StatusOK {
		return nil
	}
	if live == nil {
		live = &incarnation{key: op.key, raw: op.spec, sp: sp, ts: ts}
		newTwin(live)
		spec, _ := json.Marshal(ts)
		lsn := m.appendRecord(wal.KindCreate, op.key, spec, live)
		m.eras[op.key] = append(m.eras[op.key], era{lsn, live})
	}
	echo, _ := json.Marshal(live.twin.stats())
	return sameBytes("create echo", bytes.TrimSpace(w.Body.Bytes()), echo)
}

func (m *modelRun) update(op modelOp) error {
	var body []byte
	path, ct := "/v1/update", "application/json"
	if op.codec == 2 {
		path, ct, body = "/v2/update", wire.ContentType, wire.AppendUpdates(nil, op.us)
	} else {
		req := UpdateRequest{Updates: make([]UpdateItem, len(op.us))}
		for i, u := range op.us {
			req.Updates[i] = UpdateItem{Item: u.Item, Delta: u.Delta}
		}
		body, _ = json.Marshal(req)
		if op.codec == 1 {
			path = "/v2/update"
		}
	}
	live := m.live(op.key)
	want := http.StatusOK
	switch {
	case live == nil:
		want = http.StatusNotFound
	case !live.sp.signed && slices.ContainsFunc(op.us, func(u wire.Update) bool { return u.Delta < 0 }):
		want = http.StatusBadRequest
	case m.draining:
		want = http.StatusServiceUnavailable
	}
	if want == http.StatusOK {
		// The twin goes first, so the next operation follows the ack at once.
		m.appendRecord(wal.KindUpdate, op.key, wire.AppendUpdates(nil, op.us), live)
		live.ack(op.us)
	}
	w := m.do(http.MethodPost, path+"?key="+op.key, body, ct, "")
	if err := status(w, want); err != nil || want != http.StatusOK {
		return err
	}
	return sameBytes("update reply", w.Body.Bytes(), []byte(fmt.Sprintf("{\"accepted\":%d}\n", len(op.us))))
}

func (m *modelRun) query(key string, qs []Query, codec int) error {
	req := QueryRequest{Key: key, Queries: qs}
	body, _ := json.Marshal(req)
	ct, accept := "application/json", ""
	if codec&1 != 0 {
		wq := wire.QueryRequest{Key: key}
		for _, q := range qs {
			wq.Queries = append(wq.Queries, wire.Query{Kind: kindBytes[q.Kind], Item: uint64(q.Item), K: q.K})
		}
		ct, body = wire.ContentType, wire.AppendQuery(nil, &wq)
	}
	if codec&2 != 0 {
		accept = wire.ContentType
	}
	w := m.do(http.MethodPost, "/v2/query", body, ct, accept)
	live := m.live(key)
	if live == nil {
		return status(w, http.StatusNotFound)
	}
	if !live.sp.points && slices.ContainsFunc(qs, func(q Query) bool { return q.Kind != QueryEstimate }) {
		return status(w, http.StatusBadRequest)
	}
	if err := status(w, http.StatusOK); err != nil {
		return err
	}
	resp, _, err := m.srv.answerQuery(live.twin, &req, live.twin.eng.QueryBatch)
	if err != nil {
		return err
	}
	tw := httptest.NewRecorder()
	treq := httptest.NewRequest(http.MethodPost, "/v2/query", nil)
	if accept != "" {
		treq.Header.Set("Accept", accept)
	}
	writeQueryResponse(tw, treq, resp)
	return sameBytes("query "+key, w.Body.Bytes(), tw.Body.Bytes())
}

func (m *modelRun) estimate(key string) error {
	w := m.do(http.MethodGet, "/v1/estimate?key="+key, nil, "", "")
	live := m.live(key)
	if live == nil {
		return status(w, http.StatusNotFound)
	}
	if err := status(w, http.StatusOK); err != nil {
		return err
	}
	tw := httptest.NewRecorder()
	writeJSON(tw, http.StatusOK, EstimateResponse{Key: key, Sketch: live.sp.Name, Estimate: live.twin.eng.Estimate()})
	return sameBytes("estimate "+key, w.Body.Bytes(), tw.Body.Bytes())
}

func (m *modelRun) snapshot(key string) error {
	w := m.do(http.MethodGet, "/v1/snapshot?key="+key, nil, "", "")
	live := m.live(key)
	switch {
	case live == nil:
		return status(w, http.StatusNotFound)
	case !live.sp.Mergeable():
		return status(w, http.StatusNotImplemented)
	}
	if err := status(w, http.StatusOK); err != nil {
		return err
	}
	want, err := live.twin.snapshot()
	if err != nil {
		return err
	}
	return sameBytes("snapshot "+key, w.Body.Bytes(), want)
}

// merge folds a snapshot of a same-seed donor tenant fed op.us (made
// insertion-only, which every cell accepts) into the key's tenant.
func (m *modelRun) merge(op modelOp) error {
	live := m.live(op.key)
	var env []byte
	if live != nil && live.sp.Mergeable() {
		donor := &incarnation{key: op.key, sp: live.sp, ts: live.ts}
		newTwin(donor)
		us := slices.Clone(op.us)
		for i := range us {
			us[i].Delta = max(us[i].Delta, -us[i].Delta)
		}
		donor.twin.eng.Apply(us)
		var err error
		env, err = donor.twin.snapshot()
		donor.twin.eng.Close()
		if err != nil {
			return err
		}
	}
	w := m.do(http.MethodPost, "/v1/merge?key="+op.key, env, "application/octet-stream", "")
	want := http.StatusOK
	switch {
	case live == nil:
		want = http.StatusNotFound
	case !live.sp.Mergeable():
		want = http.StatusNotImplemented
	case m.draining:
		want = http.StatusServiceUnavailable
	}
	if err := status(w, want); err != nil || want != http.StatusOK {
		return err
	}
	if err := live.twin.fold(env); err != nil {
		return fmt.Errorf("twin fold: %w", err)
	}
	return nil
}

// ship takes the key's shipment and applies it to the replica. A robust
// tenant ships its declaration alone; a mergeable one ships state the
// replica answers exactly as the twin does, with the twin's mass.
func (m *modelRun) ship(key string) error {
	sh, err := m.srv.ShipTenant(key)
	live := m.live(key)
	if live == nil {
		if err == nil {
			return fmt.Errorf("shipped %q, which the model does not hold", key)
		}
		return nil
	}
	if err != nil {
		return err
	}
	spec, _ := json.Marshal(live.ts)
	if sh.Key != key || !bytes.Equal(sh.Spec, spec) {
		return fmt.Errorf("shipment declares %q as %s, the model %s", sh.Key, sh.Spec, spec)
	}
	if !live.sp.Mergeable() {
		if sh.State != nil || sh.Mass != 0 || sh.Deleted != 0 {
			return fmt.Errorf("robust shipment carries %d state bytes, mass %d, deleted %d; want its declaration alone", len(sh.State), sh.Mass, sh.Deleted)
		}
		return m.replica.ApplyShipment(key, sh.Spec, sh.State, sh.Mass, sh.Deleted)
	}
	if err := m.replica.ApplyShipment(key, sh.Spec, sh.State, sh.Mass, sh.Deleted); err != nil {
		return err
	}
	qs := []Query{{Kind: QueryEstimate}}
	if live.sp.points {
		qs = append(qs, Query{Kind: QueryPoint, Item: 1}, Query{Kind: QueryTopK, K: 8})
	}
	body, _ := json.Marshal(QueryRequest{Key: key, Queries: qs})
	req := httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(body))
	w := httptest.NewRecorder()
	m.replica.Handler().ServeHTTP(w, req)
	if err := status(w, http.StatusOK); err != nil {
		return fmt.Errorf("replica query: %w", err)
	}
	resp, _, err := m.srv.answerQuery(live.twin, &QueryRequest{Key: key, Queries: qs}, live.twin.eng.QueryBatch)
	if err != nil {
		return err
	}
	tw := httptest.NewRecorder()
	writeQueryResponse(tw, req, resp)
	if err := sameBytes("replica query "+key, w.Body.Bytes(), tw.Body.Bytes()); err != nil {
		return err
	}
	got, want := m.replica.lookup(key).stats(), live.twin.stats()
	if got.Mass != want.Mass || got.DeletedMass != want.DeletedMass {
		return fmt.Errorf("replica holds mass %d, deleted %d; the twin %d, %d", got.Mass, got.DeletedMass, want.Mass, want.DeletedMass)
	}
	return nil
}

// delete removes the key's tenant, whose echo is its last stats entry.
func (m *modelRun) delete(key string) error {
	m.flush(key)
	w := m.do(http.MethodDelete, "/v1/keys?key="+key, nil, "", "")
	live := m.live(key)
	want := http.StatusOK
	switch {
	case live == nil:
		want = http.StatusNotFound
	case m.draining:
		want = http.StatusServiceUnavailable
	}
	if err := status(w, want); err != nil || want != http.StatusOK {
		return err
	}
	lsn := m.appendRecord(wal.KindDelete, key, nil, nil)
	m.eras[key] = append(m.eras[key], era{lsn, nil})
	echo, _ := json.Marshal(live.twin.stats())
	live.twin.eng.Close()
	return sameBytes("delete echo", bytes.TrimSpace(w.Body.Bytes()), echo)
}

func (m *modelRun) stats() error {
	for _, key := range m.liveKeys() {
		m.flush(key)
	}
	w := m.do(http.MethodGet, "/v1/stats", nil, "", "")
	if err := status(w, http.StatusOK); err != nil {
		return err
	}
	var got StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		return err
	}
	if got.Keys != len(m.liveKeys()) || got.MaxKeys != m.cfg.MaxKeys || got.Draining != m.draining {
		return fmt.Errorf("stats header %+v, want %d keys of %d, draining %v", got, len(m.liveKeys()), m.cfg.MaxKeys, m.draining)
	}
	for _, ks := range got.Tenants {
		live := m.live(ks.Key)
		if live == nil {
			return fmt.Errorf("stats lists %q, which the model does not hold", ks.Key)
		}
		g, _ := json.Marshal(ks)
		t, _ := json.Marshal(live.twin.stats())
		if err := sameBytes("stats "+ks.Key, g, t); err != nil {
			return err
		}
	}
	return nil
}

// sweep reads every tenant every way: a query of each kind it answers, its
// snapshot (a 501 for a robust tenant) and the stats listing.
func (m *modelRun) sweep() error {
	for _, inc := range m.liveIncs() {
		qs := []Query{{Kind: QueryEstimate}}
		if inc.sp.points {
			qs = append(qs, Query{Kind: QueryPoint, Item: 1}, Query{Kind: QueryPoint, Item: 7}, Query{Kind: QueryTopK, K: 8})
		}
		if err := m.query(inc.key, qs, 0); err != nil {
			return err
		}
		if err := m.snapshot(inc.key); err != nil {
			return err
		}
	}
	return m.stats()
}

// restart shuts the server down and opens its directory again. After
// Shutdown no engine worker beyond the twins' is left and no WAL goroutine
// runs, and the directory does not change while the drained server still
// answers every read.
func (m *modelRun) restart() error {
	if err := m.srv.Shutdown(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	m.draining = true
	if err := m.noServerGoroutines(); err != nil {
		return err
	}
	before := hashDir(m.dir)
	if err := m.sweep(); err != nil {
		return fmt.Errorf("after shutdown: %w", err)
	}
	if after := hashDir(m.dir); after != before {
		return fmt.Errorf("the data directory changed after Shutdown")
	}
	if _, err := m.checkLog(m.dir); err != nil {
		return err
	}
	if err := m.open(m.dir); err != nil {
		return err
	}
	return m.sweep()
}

func (m *modelRun) crash(op modelOp) error {
	dir := waltest.Crash(m.tb, m.dir)
	m.abandon()
	if _, err := m.checkLog(dir); err != nil {
		return err
	}
	if op.kind == opCrash {
		if err := m.open(dir); err != nil {
			return err
		}
		return m.sweep()
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	newest := segs[len(segs)-1]
	fi, err := os.Stat(newest)
	if err != nil {
		return err
	}
	if err := os.Truncate(newest, fi.Size()*int64(op.cut)>>16); err != nil {
		return err
	}
	cks, _, err := wal.LoadCheckpoints(dir)
	if err != nil {
		return err
	}
	head, err := m.checkLog(dir)
	if err != nil {
		return err
	}
	want, err := m.expectAfterCut(head, cks)
	if err != nil {
		return err
	}
	if err := m.open(dir); err != nil {
		return err
	}
	if err := m.resync(head, want, cks); err != nil {
		return err
	}
	return m.sweep()
}

// checkLog opens the log in dir (no server holds it) and checks that its
// records are the model's, in order: all of them, or after a cut a prefix.
// It returns the log head.
func (m *modelRun) checkLog(dir string) (uint64, error) {
	l, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNone})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	err = l.Replay(func(lsn uint64, rec wal.Record) error {
		if lsn > uint64(len(m.log)) {
			return fmt.Errorf("log record %d (%+v) past the %d acknowledged", lsn, rec, len(m.log))
		}
		if want := m.log[lsn-1].rec; rec.Kind != want.Kind || rec.Key != want.Key || !bytes.Equal(rec.Data, want.Data) {
			return fmt.Errorf("log record %d is %v %q %x, the model's %v %q %x", lsn, rec.Kind, rec.Key, rec.Data, want.Kind, want.Key, want.Data)
		}
		return nil
	})
	return l.HeadLSN(), err
}

// expectAfterCut is the tenant each key holds once the log is cut back to
// head: the one its checkpoint on disk held at the checkpoint's LSN, then
// whatever the key's surviving records past that LSN declare or delete.
func (m *modelRun) expectAfterCut(head uint64, cks map[string]wal.Checkpoint) (map[string]*incarnation, error) {
	want := make(map[string]*incarnation)
	for key, es := range m.eras {
		var cur *incarnation
		from := uint64(0)
		if ck, ok := cks[key]; ok {
			from = ck.LSN
			for _, e := range es {
				if e.from <= from {
					cur = e.inc
				}
			}
			if cur == nil {
				return nil, fmt.Errorf("a checkpoint at LSN %d for %q, which held no tenant then", ck.LSN, key)
			}
			if spec, _ := json.Marshal(cur.ts); !bytes.Equal(spec, ck.Spec) {
				return nil, fmt.Errorf("the checkpoint at LSN %d for %q holds %s, the key held %s", ck.LSN, key, ck.Spec, spec)
			}
		}
		for lsn := from + 1; lsn <= head; lsn++ {
			if e := m.log[lsn-1]; e.rec.Key == key && e.rec.Kind != wal.KindUpdate {
				cur = e.inc
			}
		}
		if cur != nil {
			want[key] = cur
		}
	}
	return want, nil
}

// resync checks the recovered server against want and rebuilds the twins
// from what survived: a robust twin replays its surviving batches, and a
// static twin folds the recovered snapshot. Either counts the acknowledged
// batches the recovered tenant holds: those its checkpoint covers, which may
// lie past this cut or an earlier one, and the surviving ones after it.
func (m *modelRun) resync(head uint64, want map[string]*incarnation, cks map[string]wal.Checkpoint) error {
	for _, inc := range m.liveIncs() {
		inc.twin.eng.Close()
	}
	acked := m.log
	m.log = m.log[:head]
	for key, es := range m.eras {
		var kept []era
		for _, e := range es {
			if e.from <= head {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 || kept[len(kept)-1].inc != want[key] {
			kept = append(kept, era{head, want[key]})
		}
		m.eras[key] = kept
	}
	for key, inc := range want {
		t := m.srv.lookup(key)
		if t == nil {
			return fmt.Errorf("recovery lost %q", key)
		}
		if t.ts != inc.ts {
			return fmt.Errorf("%q recovered as %+v, want %+v", key, t.ts, inc.ts)
		}
		newTwin(inc)
		// A checkpoint past the cut belongs to the incarnation the key holds:
		// no surviving record followed it.
		covered := max(head, cks[key].LSN)
		for _, us := range inc.lost {
			inc.count(us)
		}
		for i, e := range acked[:covered] {
			if e.inc != inc || e.rec.Kind != wal.KindUpdate {
				continue
			}
			us, _ := wire.DecodeUpdates(e.rec.Data, nil)
			if !inc.sp.Mergeable() {
				inc.ack(us)
				continue
			}
			inc.count(us)
			if uint64(i) >= head {
				inc.lost = append(inc.lost, us)
			}
		}
		if !inc.sp.Mergeable() {
			continue
		}
		env, err := t.snapshot()
		if err != nil {
			return err
		}
		if err := inc.twin.fold(env); err != nil {
			return fmt.Errorf("twin fold of %q: %w", key, err)
		}
	}
	return nil
}

// workers counts the goroutines running an engine shard and those running
// a WAL's background sync.
func workers() [2]int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			stacks := string(buf[:n])
			return [2]int{strings.Count(stacks, "repro/internal/engine.(*Engine).run("),
				strings.Count(stacks, "repro/internal/wal.(*Log).syncLoop(")}
		}
		buf = make([]byte, 2*len(buf))
	}
}

// noServerGoroutines checks, after a grace period for exiting goroutines,
// that the server left no engine worker or WAL sync loop running.
func (m *modelRun) noServerGoroutines() error {
	for i := 0; ; i++ {
		w := workers()
		engines, syncs := w[0]-m.ownShards()-m.others[0], w[1]-m.others[1]
		if engines <= 0 && syncs <= 0 {
			return nil
		}
		if i == 200 {
			return fmt.Errorf("after Shutdown %d engine workers and %d WAL sync loops are still running", engines, syncs)
		}
		time.Sleep(time.Millisecond)
	}
}

// hashDir digests every file name and byte under dir.
func hashDir(dir string) [32]byte {
	h := sha256.New()
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		fmt.Fprintf(h, "%s %d %v\n", p, len(b), err)
		h.Write(b)
		return nil
	})
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// shrinkModel drops runs of operations, halving the run length, while the
// sequence still fails, then empties update and merge batches down to one
// update where it still fails.
func shrinkModel(tb testing.TB, mc modelConfig, ops []modelOp, err error) ([]modelOp, error) {
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(ops); {
			cand := slices.Concat(ops[:i], ops[i+chunk:])
			if cerr := runModel(tb, mc, cand); cerr != nil {
				ops, err = cand, cerr
				continue
			}
			i += chunk
		}
	}
	for i := range ops {
		for len(ops[i].us) > 1 {
			cand := slices.Clone(ops)
			cand[i].us = ops[i].us[:len(ops[i].us)/2]
			cerr := runModel(tb, mc, cand)
			if cerr == nil {
				break
			}
			ops, err = cand, cerr
		}
	}
	return ops, err
}

// goBody prints a sequence as a Go test that replays it.
func goBody(mc modelConfig, ops []modelOp) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func TestModelRepro(t *testing.T) {\n\tmc := modelConfig{fsync: %q, shards: %d, maxKeys: %d, ckptEvery: %d, seed: %d}\n\tif err := runModel(t, mc, []modelOp{\n",
		mc.fsync, mc.shards, mc.maxKeys, mc.ckptEvery, mc.seed)
	for _, op := range ops {
		fmt.Fprintf(&b, "\t\t{kind: %s, key: %q", op.kind, op.key)
		if op.kind == opCreate {
			fmt.Fprintf(&b, ", spec: %#v", op.spec)
		}
		if len(op.us) > 0 {
			b.WriteString(", us: []wire.Update{")
			for i, u := range op.us {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "{Item: %d, Delta: %d}", u.Item, u.Delta)
			}
			b.WriteString("}")
		}
		if len(op.qs) > 0 {
			b.WriteString(", qs: []Query{")
			for i, q := range op.qs {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "{Kind: %q, Item: %d, K: %d}", q.Kind, q.Item, q.K)
			}
			b.WriteString("}")
		}
		if op.codec != 0 {
			fmt.Fprintf(&b, ", codec: %d", op.codec)
		}
		if op.kind == opTornCrash {
			fmt.Fprintf(&b, ", cut: %d", op.cut)
		}
		b.WriteString("},\n")
	}
	b.WriteString("\t}); err != nil {\n\t\tt.Fatal(err)\n\t}\n}\n")
	return strings.ReplaceAll(b.String(), "server.TenantSpec", "TenantSpec")
}

// checkModel runs a sequence and, if it fails, fails tb with the sequence
// as a Go test body, shrunk unless the fuzzer, which minimizes its own
// input, is running.
func checkModel(tb testing.TB, what string, mc modelConfig, ops []modelOp) {
	tb.Helper()
	if err := runModel(tb, mc, ops); err != nil {
		if f := flag.Lookup("test.fuzz"); f == nil || f.Value.String() == "" {
			ops, err = shrinkModel(tb, mc, ops, err)
		}
		tb.Fatalf("%s: %v\nshrunk to %d operations:\n%s", what, err, len(ops), goBody(mc, ops))
	}
}

// TestModel checks -model.seeds generated sequences, from seed -model.first.
func TestModel(t *testing.T) {
	seeds := *modelSeeds
	if testing.Short() {
		seeds = max(seeds/10, 1)
	}
	for seed := *modelFirst; seed < *modelFirst+int64(seeds); seed++ {
		c := randChoices{rand.New(rand.NewSource(seed))}
		mc := genConfig(c)
		checkModel(t, fmt.Sprintf("seed %d", seed), mc, genOps(c, modelSteps))
	}
}

// FuzzModel decodes the configuration and operations from the fuzzer's
// bytes, one choice per byte.
func FuzzModel(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &byteChoices{b: data}
		mc := genConfig(c)
		checkModel(t, "fuzz input", mc, genOps(c, modelSteps))
	})
}
