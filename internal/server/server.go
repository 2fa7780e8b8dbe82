// Package server implements sketchd, a multi-tenant network sketch
// service over the repository's estimators. Each keyspace (tenant) is
// backed by its own engine.Engine — a sharded concurrent ingest pipeline
// over a robust or static sketch factory — declared by its owner (POST
// /v2/keys) against a server-wide quota and torn down with a graceful
// drain on shutdown. A request for a key nobody declared is a 404 on every
// endpoint; nothing is created on first touch.
//
// The service exposes batched ingest under two negotiated codecs —
// binary update frames (POST /v2/update with Content-Type
// application/x-sketch-frame; see internal/wire) and JSON (POST
// /v1/update, or /v2/update without the frame Content-Type), both
// funneling into one apply core so codec choice never changes
// semantics — plus flushed reads (GET /v1/estimate, POST /v2/query) and
// binary state transfer (GET /v1/snapshot, POST /v1/merge) for the linear
// static sketches, which lets a fleet of
// sketchd instances ingest independently and fold their state together
// — the distributed-aggregation pattern that motivates mergeable
// sketches. Error replies are always JSON, whatever the request codec.
//
// Tenant state moves one way: tenant.export assembles what WAL create
// records, checkpoints and replication shipments carry, Server.rebuild
// installs it for boot recovery and ApplyShipment, and every snapshot
// envelope — a /v1/merge body, a checkpoint, a shipment, a ?merge=all peer
// envelope — is staged and folded by spec.stage and merger.fold.
//
// Tenants are declared with a TenantSpec (POST /v2/keys): a sketch ×
// policy × model combination — any base sketch in the registry composed
// with any robustness policy of internal/robust (none, switching, ring,
// paths) and a stream model (insertion, turnstile, bounded_deletion) —
// together with the tenant's own (ε, δ, n, shards, flip budget, λ/α,
// seed). The paper's framework sizes each robust instance from its
// statistic's own parameters, and its guarantee belongs to the (policy,
// problem) pair, so the cell is always something the owner said: the
// sketch is required, an empty policy means none, and the server Config
// supplies only sizing defaults and caps. Invalid cells — ring × any
// non-insertion model, non-Fp sketches under a non-insertion model — are
// rejected at create time, and insertion-only tenants reject negative
// deltas with a 400 instead of silently voiding their guarantee.
// Structured reads go through POST /v2/query: a batch of
// typed queries (estimate | point | topk) with typed answers carrying the
// tenant's ε-derived error bound and flip-budget state — the Section 6
// heavy hitters machinery (point queries, candidate sets) end to end over
// HTTP. The robust combinations keep their estimates trustworthy even
// when clients adaptively react to what the endpoint returns, which is
// exactly the threat model of a shared network service; see the paper and
// internal/robust.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Config parameterizes New. The zero value is usable: every field has a
// default. Config is the server's default-and-cap layer only: every
// accuracy and sizing knob here can be overridden per tenant through
// TenantSpec (POST /v2/keys), and the caps (MaxTenantShards,
// MaxTenantFlipBudget, and MaxTenantStateBytes on their product) bound what
// a spec may ask for.
type Config struct {
	// MaxKeys is the server-wide keyspace quota: creating a tenant beyond
	// it fails with 507 until another keyspace is deleted. Defaults to 64.
	MaxKeys int

	// Shards is a static tenant's engine.Engine shard count. Defaults to
	// 4. A robust tenant whose spec names no shards runs on one: its
	// guarantee, flip budget and copies are per ensemble, and each shard
	// would be a whole ensemble of its own.
	Shards int

	// Eps and Delta are the per-keyspace accuracy targets; robust and
	// static factories size each shard instance at Delta/Shards so the
	// union bound over shards restores the server-wide guarantee.
	// Default 0.2 and 0.05.
	Eps   float64
	Delta float64

	// N is the universe-size bound handed to the robust constructors.
	// Defaults to 2^32.
	N uint64

	// Seed is the root randomness seed. Two servers that should exchange
	// snapshots must share it: tenant and shard seeds derive from it
	// deterministically, which is what makes shard i's sketch on one
	// server mergeable with shard i's on another.
	Seed int64

	// FlipBudget is the flip number λ handed to the dense-switching and
	// computation-paths policies: the number of published-output changes
	// the robustness guarantee covers (dense switching maintains λ
	// instances; paths union-bounds δ₀ over λ flips). The paper's
	// worst-case bounds — Õ(ε⁻²·log³n) for robust entropy's 2^H
	// (Proposition 7.2) in particular — are impractically large for a
	// server, so this is the domain-informed budget of Theorem 4.3's S_λ
	// class; /v1/stats reports Exhausted when a stream overruns it.
	// Defaults to 64.
	FlipBudget int

	// DataDir, when non-empty and the server is created with Open, enables
	// persistence: a write-ahead log plus per-tenant checkpoints live there
	// and every tenant survives a crash or restart. New ignores it.
	DataDir string

	// Fsync selects the WAL sync policy: "always" (default; every
	// acknowledged batch survives power loss), "batch" (background sync,
	// bounded loss window), or "none" (OS page cache only).
	Fsync string

	// CheckpointEvery is the number of applied updates between automatic
	// checkpoints of a mergeable tenant (bounding its replay-on-boot tail).
	// Defaults to 131072.
	CheckpointEvery int
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxKeys <= 0 {
		cfg.MaxKeys = 64
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Eps <= 0 {
		cfg.Eps = 0.2
	}
	if cfg.Delta <= 0 {
		cfg.Delta = 0.05
	}
	if cfg.N == 0 {
		cfg.N = 1 << 32
	}
	if cfg.FlipBudget <= 0 {
		cfg.FlipBudget = 64
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1 << 17
	}
	return cfg
}

// maxBodyBytes bounds every request body the server reads.
const maxBodyBytes = 64 << 20

var (
	errDraining = errors.New("server is draining")
	errQuota    = errors.New("keyspace quota exhausted; delete a key or raise -max-keys")
	errConflict = errors.New("conflict")
	// errPartial marks a fold that failed after counters moved: not safe to
	// retry, so a 500 where every earlier failure is the client's 4xx.
	errPartial = errors.New("partially applied")
	// errJournal marks a declaration or batch the log refused: the disk's
	// failure, a 500, not the client's malformed request.
	errJournal = errors.New("journal")
	// errGone marks a write that found its key deleted or replaced under it:
	// a 410, nothing applied.
	errGone = errors.New("gone")
	// errMassBound marks a batch that would take a tenant's absolute mass
	// past maxAbsMass: a 400, nothing journaled or applied.
	errMassBound = errors.New("absolute mass bound")
)

// maxAbsMass bounds a tenant's absolute mass Σ|Δ| over its whole stream,
// the paper's bounded-entry model made concrete: under it no counter, and
// no ledger sum, leaves int64.
const maxAbsMass = 1 << 62

type tenant struct {
	key  string
	spec spec
	ts   TenantSpec // fully resolved: defaults applied
	eng  *engine.Engine

	// writeMu orders every write to the tenant against every other. Each
	// write, checkpoint and unmap holds it past writable: ingest (log append,
	// Apply, cadence checkpoint), /v1/merge, DELETE /v1/keys, ApplyShipment's
	// replacement; Drain and Shutdown take it too, and so does every export
	// (checkpoint, shipment, /v1/snapshot). So batches reach the engine in log
	// order, a mapped engine never closes under a batch, and no checkpoint,
	// shipment or snapshot splits a batch or outlives the tenant's mapping.
	writeMu sync.Mutex

	sinceCkpt int // updates applied since the last checkpoint; guarded by writeMu

	// The tenant's ledger: the net mass Σdelta and the deleted mass
	// Σ|delta < 0| of the stream it applied, or of the stream its checkpoint
	// or shipment stood for. Written only under writeMu, by apply and
	// rebuild; read lock-free by stats. A /v1/merge moves neither: a
	// snapshot envelope carries state, not stream.
	mass, deleted atomic.Int64
}

// apply hands one journaled batch to the engine whole and counts it into
// the ledger: ingest and recovery's replay both apply through it. The
// caller holds writeMu, or owns the tenant outright as recovery does.
func (t *tenant) apply(us []wire.Update) {
	t.eng.Apply(us)
	var mass, deleted int64
	for _, u := range us {
		mass += u.Delta
		if u.Delta < 0 {
			deleted -= u.Delta
		}
	}
	t.mass.Add(mass)
	t.deleted.Add(deleted)
}

// admitMass refuses a batch that would take the tenant's absolute mass
// past maxAbsMass. The ledger holds it as mass + 2·deleted: the net mass
// is the inserted minus the deleted mass, so that sum is inserted plus
// deleted, Σ|Δ|. Every partial sum stays at or below 2⁶², so nothing here
// overflows, and a single |Δ| above the bound (MinInt64's included) is
// refused before it is added. The caller holds writeMu. Replay applies what
// was journaled, so it never asks.
func (t *tenant) admitMass(us []wire.Update) error {
	abs := uint64(t.mass.Load()) + 2*uint64(t.deleted.Load())
	for i, u := range us {
		d := uint64(u.Delta)
		if u.Delta < 0 {
			d = -d
		}
		if abs > maxAbsMass || d > maxAbsMass-abs {
			return fmt.Errorf("%w: update %d (delta %d) takes tenant %q's absolute mass Σ|delta| past 2^62 — nothing was applied",
				errMassBound, i, u.Delta, t.key)
		}
		abs += d
	}
	return nil
}

// snapshot serializes a mergeable tenant's state into a snapshot
// envelope, one part per shard. The caller holds writeMu, so the envelope
// is the state after one acknowledged batch and the ledger describes it.
func (t *tenant) snapshot() ([]byte, error) {
	parts := make([][]byte, t.eng.Shards())
	err := t.eng.Visit(func(i int, est sketch.Estimator) error {
		b, err := t.spec.marshal(est)
		parts[i] = b
		return err
	})
	if err != nil {
		return nil, err
	}
	return encodeSnapshot(t.spec.Name, parts), nil
}

// export is the tenant as it crosses a restart or a node boundary — what
// a WAL create record, a checkpoint and a replication shipment all carry:
// the resolved TenantSpec as JSON (seed included, which is what makes the
// rebuilt copy snapshot-compatible, and why none of the three is a
// tenant-facing surface) and, withState, the snapshot envelope plus the
// ledger that describes it. The caller holds writeMu for a withState
// export. A robust tenant exports its declaration only, whatever withState
// says: a switching ensemble is not linear state, it is rebuilt by
// replaying the stream under the same seed. rebuild is the inverse.
func (t *tenant) export(withState bool) (*wire.Ship, error) {
	specJSON, err := json.Marshal(t.ts)
	if err != nil {
		return nil, err
	}
	sh := &wire.Ship{Key: t.key, Spec: specJSON}
	if !withState || !t.spec.Mergeable() {
		return sh, nil
	}
	if sh.State, err = t.snapshot(); err != nil {
		return nil, err
	}
	sh.Mass, sh.Deleted = t.mass.Load(), t.deleted.Load()
	return sh, nil
}

// fold adds a snapshot envelope into the tenant's engine, or fails with
// the engine untouched (see spec.stage and merger.fold).
func (t *tenant) fold(envelope []byte) error {
	name, parts, err := decodeSnapshot(envelope)
	if err != nil {
		return err
	}
	if name != t.spec.Name {
		return fmt.Errorf("%w: snapshot is a %q snapshot, tenant is %q", errConflict, name, t.spec.Name)
	}
	m, err := t.spec.stage(parts, t.eng.Shards())
	if err != nil {
		return err
	}
	return m.fold(t.eng)
}

// Server is a sketchd instance. Create with New (in-memory) or Open
// (durable), mount Handler on an http.Server, and call Drain — Shutdown
// for durable servers — on exit.
type Server struct {
	cfg      Config
	mu       sync.Mutex
	tenants  map[string]*tenant
	draining atomic.Bool

	// Durability (nil/zero without Open + DataDir; see durable.go).
	wal        *wal.Log
	recovery   RecoveryStats
	ckptWrites atomic.Int64 // checkpoints successfully written (telemetry + debounce tests)

	// forwarder is the cluster placement hook; see SetForwarder in
	// cluster_support.go.
	forwarder atomic.Pointer[func(key string) (string, bool)]
}

// New returns a Server with no keyspaces yet.
func New(cfg Config) *Server {
	return &Server{cfg: cfg.withDefaults(), tenants: make(map[string]*tenant)}
}

// tenantSeed derives a keyspace's engine seed from the root seed, so two
// servers sharing a root seed build snapshot-compatible sketches.
func tenantSeed(root int64, key string) int64 {
	h := dist.SplitMix64(uint64(root) ^ 0x6b657973706163e5)
	for _, b := range []byte(key) {
		h = dist.SplitMix64(h ^ uint64(b))
	}
	return int64(h)
}

// lookup returns the tenant for key, or nil.
func (s *Server) lookup(key string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[key]
}

// specMatches checks a TenantSpec request against an existing tenant: the
// resolved sketch × policy cell must be the tenant's, and every other field
// the request sets must agree with the tenant's resolved spec — fields the
// request leaves zero inherit the tenant's values rather than conflicting
// with them, which keeps a re-create idempotent.
func (s *Server) specMatches(t *tenant, raw TenantSpec) error {
	sp, rts, err := resolve(raw, s.cfg)
	if err != nil {
		return err
	}
	if sp.Name != t.spec.Name || sp.Policy != t.spec.Policy {
		return fmt.Errorf("%w: key %q already holds a %s sketch, not %s", errConflict, t.key, t.spec.Display(), sp.Display())
	}
	for _, f := range []struct {
		name      string
		set       bool
		got, want any
	}{
		{"eps", raw.Eps != 0, rts.Eps, t.ts.Eps},
		{"delta", raw.Delta != 0, rts.Delta, t.ts.Delta},
		{"n", raw.N != 0, rts.N, t.ts.N},
		{"shards", raw.Shards != 0, rts.Shards, t.ts.Shards},
		{"flip_budget", raw.FlipBudget != 0, rts.FlipBudget, t.ts.FlipBudget},
		{"model", raw.Model != "", rts.Model, t.ts.Model},
		{"lambda", raw.Lambda != 0, rts.Lambda, t.ts.Lambda},
		{"alpha", raw.Alpha != 0, rts.Alpha, t.ts.Alpha},
	} {
		if f.set && f.got != f.want {
			return fmt.Errorf("%w: key %q was created with %s=%v, not %v", errConflict, t.key, f.name, f.want, f.got)
		}
	}
	// The seed never goes in an error: echoing the stored value would hand
	// any client that can name the key the tenant's resolved seed — the
	// state compromise the seed-leak adversary needs (KeyStats zeroes Seed
	// for the same reason).
	if raw.Seed != 0 && rts.Seed != t.ts.Seed {
		return fmt.Errorf("%w: key %q was created with a different seed", errConflict, t.key)
	}
	return nil
}

// getOrCreate is the one way a client's tenant comes into being: it
// returns the tenant for key, creating it from the given TenantSpec (unset
// sizing fields fall back to the server defaults) under the quota if absent.
func (s *Server) getOrCreate(key string, raw TenantSpec) (*tenant, error) {
	if key == "" {
		return nil, errors.New("missing key")
	}
	if t := s.lookup(key); t != nil {
		if err := s.specMatches(t, raw); err != nil {
			return nil, err
		}
		return t, nil
	}
	if s.draining.Load() {
		return nil, errDraining
	}
	sp, ts, err := resolve(raw, s.cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tenants[key]; t != nil { // lost the creation race
		if err := s.specMatches(t, raw); err != nil {
			return nil, err
		}
		return t, nil
	}
	// Re-check under the write lock: Drain snapshots the tenant map, so a
	// tenant inserted after its flag-set but before its copy would keep a
	// live engine on a drained server.
	if s.draining.Load() {
		return nil, errDraining
	}
	if len(s.tenants) >= s.cfg.MaxKeys {
		return nil, errQuota
	}
	t := s.newTenant(key, sp, ts)
	// Journal the declaration before the tenant becomes visible: an
	// unloggable tenant must not serve (its acknowledged updates would
	// have no create record to hang off at recovery).
	if err := s.logCreate(t); err != nil {
		t.eng.Close()
		return nil, fmt.Errorf("%w: %v", errJournal, err)
	}
	s.tenants[key] = t
	// The collections that ran while the tenant's sketches were allocated left
	// the next goal anywhere from one to two times the heap; one now, off the
	// request path, sets it. Under the collector's 4 MiB floor nothing moves.
	if float64(ts.Shards)*sp.bytes(ts) >= 4<<20 {
		go runtime.GC()
	}
	return t, nil
}

// newTenant builds a tenant (and starts its engine) from a resolved spec,
// its shard seeds derived from the resolved root seed and the key.
func (s *Server) newTenant(key string, sp spec, ts TenantSpec) *tenant {
	return &tenant{key: key, spec: sp, ts: ts, eng: engine.New(sp.engineConfig(ts, tenantSeed(ts.Seed, key)))}
}

// rebuild is the one way a tenant comes back from bytes this or another
// server exported (see tenant.export): boot recovery's checkpoint and
// create-record arms and ApplyShipment all install through it. The spec
// resolves as trusted — the caps bound client requests, not declarations a
// server already admitted — and the tenant is admitted past MaxKeys by
// every caller: refusing would silently drop acknowledged or replicated
// data. The ledger starts at the exported mass and deleted mass. The
// returned tenant has a running engine and is not yet mapped.
func (s *Server) rebuild(key string, specJSON, state []byte, mass, deleted int64) (*tenant, error) {
	// Lenient, unlike a client's create body: a stored spec may carry a
	// field since removed (a data directory written before TenantSpec lost
	// "batch" still says it), and its tenant must come back all the same.
	var raw TenantSpec
	if err := json.Unmarshal(specJSON, &raw); err != nil {
		return nil, fmt.Errorf("bad spec: %w", err)
	}
	sp, ts, err := resolveTrusted(raw, s.cfg)
	if err != nil {
		return nil, fmt.Errorf("bad spec: %w", err)
	}
	if len(state) > 0 && !sp.Mergeable() {
		return nil, fmt.Errorf("state for %s, which is not mergeable", sp.Display())
	}
	t := s.newTenant(key, sp, ts)
	if len(state) > 0 {
		if err := t.fold(state); err != nil {
			t.eng.Close()
			return nil, err
		}
	}
	t.mass.Store(mass)
	t.deleted.Store(deleted)
	return t, nil
}

// Drain stops accepting writes and closes every tenant engine, flushing
// all pending updates so reads served after Drain reflect the full
// ingested stream. Reads (estimate, query, snapshot, stats) keep working —
// including reads racing the drain itself: engine.Flush waits for closing
// shards' final publish, so an estimate or snapshot served mid-drain is
// the fully-drained state, never a stale mid-close snapshot. Updates,
// merges and keyspace creation fail with 503. Idempotent.
func (s *Server) Drain() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	for _, t := range s.tenantList() {
		t.writeMu.Lock()
		t.eng.Close()
		t.writeMu.Unlock()
	}
}

// writable is the check every write runs under t.writeMu before it
// journals or applies anything: a draining server refuses it (503), and so
// does a tenant its key no longer maps to (410).
func (s *Server) writable(t *tenant) error {
	if s.draining.Load() {
		return errDraining
	}
	if s.lookup(t.key) != t {
		return fmt.Errorf("%w: keyspace %q was deleted or replaced concurrently; nothing was applied", errGone, t.key)
	}
	return nil
}

// tenantList copies the tenant map under mu, sorted by key, so callers can
// do per-tenant work that visits shard workers (stats, close, checkpoint)
// without blocking concurrent keyspace creation or deletion, and /v1/stats
// lists the same keyspace in the same order on every process.
func (s *Server) tenantList() []*tenant {
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	slices.SortFunc(ts, func(a, b *tenant) int { return strings.Compare(a.key, b.key) })
	return ts
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the sketchd HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/update", s.handleUpdate)
	mux.HandleFunc("/v1/estimate", s.handleEstimate)
	mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/v1/merge", s.handleMerge)
	mux.HandleFunc("/v1/keys", s.handleKeys)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v2/keys", s.handleV2Keys)
	mux.HandleFunc("/v2/update", s.handleV2Update)
	mux.HandleFunc("/v2/query", s.ServeQuery)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// fail maps service errors onto statuses: drain → 503, a key deleted under
// the write → 410, quota → 507, conflicts (sketch type or randomness
// mismatches) → 409, a fold that stopped halfway or a record the log
// refused → 500.
func fail(w http.ResponseWriter, status int, err error) {
	switch {
	case errors.Is(err, errDraining):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, errGone):
		status = http.StatusGone
	case errors.Is(err, errQuota):
		status = http.StatusInsufficientStorage
	case errors.Is(err, errConflict):
		status = http.StatusConflict
	case errors.Is(err, errMassBound):
		status = http.StatusBadRequest
	case errors.Is(err, errPartial), errors.Is(err, errJournal):
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func methodIs(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "method not allowed"})
	return false
}

// tenantFor resolves a tenant-scoped request's ?key=. It answers the 307
// when placement puts the key on another node and the 404 when nobody
// declared the key here, and returns nil in both cases.
func (s *Server) tenantFor(w http.ResponseWriter, r *http.Request) *tenant {
	key := r.URL.Query().Get("key")
	if s.forwarded(w, r, key) {
		return nil
	}
	t := s.lookup(key)
	if t == nil {
		fail(w, http.StatusNotFound, fmt.Errorf("unknown key %q", key))
	}
	return t
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodPost) {
		return
	}
	s.handleUpdateJSON(w, r)
}

// handleUpdateJSON decodes a JSON UpdateRequest body and applies it: the
// whole of POST /v1/update and the JSON arm of POST /v2/update. The
// insertion-model pre-scan (a negative delta on an insertion-only tenant
// rejects the whole batch before anything is applied — a deletion
// entering an insertion-only construction does not error anywhere
// downstream, it silently voids the guarantee the tenant was created
// for) and the all-or-nothing ingest live in applyUpdates, shared with
// the binary codec.
func (s *Server) handleUpdateJSON(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if err := decodeOne(json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)), &req); err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("bad update body: %w", err))
		return
	}
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	up := updatesPool.Get().(*[]wire.Update)
	us := (*up)[:0]
	for _, u := range req.Updates {
		us = append(us, wire.Update{Item: u.Item, Delta: u.Delta})
	}
	s.applyUpdates(w, t, us)
	*up = us[:0]
	updatesPool.Put(up)
}

// decodeOne decodes the one JSON value dec reads into v: anything but
// whitespace after it is an error, as it is to json.Unmarshal, so a body
// carrying a second object is refused rather than half applied.
func decodeOne(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the top-level value")
	}
	return nil
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodGet) {
		return
	}
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	writeJSON(w, http.StatusOK, EstimateResponse{Key: t.key, Sketch: t.spec.Name, Estimate: t.eng.Estimate()})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodGet) {
		return
	}
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	if !t.spec.Mergeable() {
		fail(w, http.StatusNotImplemented,
			fmt.Errorf("sketch type %q is not serializable (robust ensembles are not linear-mergeable)", t.spec.Display()))
		return
	}
	t.writeMu.Lock() // an export, so the state after one acknowledged batch
	state, err := t.snapshot()
	t.writeMu.Unlock()
	if err != nil {
		fail(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Sketch", t.spec.Name)
	_, _ = w.Write(state)
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodPost) {
		return
	}
	t := s.tenantFor(w, r)
	if t == nil {
		return
	}
	if !t.spec.Mergeable() {
		fail(w, http.StatusNotImplemented, fmt.Errorf("sketch type %q does not support merge", t.spec.Display()))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	if err := s.merge(t, body); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, UpdateResponse{Accepted: t.eng.Shards()})
}

// merge folds a snapshot envelope into t under its write lock. A merge has
// no WAL record; on a durable server the checkpoint taken before the lock
// is released is what makes it durable.
func (s *Server) merge(t *tenant, envelope []byte) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if err := s.writable(t); err != nil {
		return err
	}
	// A body that does not decode is a 400 and one that does not fit the
	// tenant (sketch type, shard count, seed) a 409, both with the sketches
	// untouched, so the client can safely retry after fixing the snapshot; a
	// failure once counters have moved is a 500.
	if err := t.fold(envelope); err != nil {
		return fmt.Errorf("merge body: %w", err)
	}
	if s.wal == nil {
		return nil
	}
	if err := s.checkpoint(t); err != nil {
		// Applied in memory but not durable: the client must treat the
		// outcome as unknown (a blind retry could double-fold the snapshot).
		return fmt.Errorf("%w: merge applied but checkpoint failed; merged state is not durable: %v", errJournal, err)
	}
	return nil
}

// handleKeys serves DELETE /v1/keys: the keyspace is torn down and its
// quota slot freed.
func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodDelete) {
		return
	}
	key := r.URL.Query().Get("key")
	if s.forwarded(w, r, key) {
		return
	}
	t := s.lookup(key)
	if t == nil {
		fail(w, http.StatusNotFound, fmt.Errorf("unknown key %q", key))
		return
	}
	if err := s.remove(t); err != nil {
		fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, t.stats())
}

// remove unmaps t and closes its engine (flushing it, stopping its shard
// workers, freeing its quota slot) under t's write lock, past writable, so
// the delete record follows every update record and checkpoint of t, and the
// key stays t's (only t's lock holder unmaps t) until the map mutation.
func (s *Server) remove(t *tenant) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if err := s.writable(t); err != nil {
		return err
	}
	// Journal the delete before the map mutation: if it cannot be made
	// durable the tenant must stay (recovery would otherwise resurrect a
	// key the client was told is gone).
	if err := s.logDelete(t.key); err != nil {
		return fmt.Errorf("%w: %v", errJournal, err)
	}
	if s.wal != nil {
		// Before the unmap: never a re-created tenant's. Best effort: a stale
		// checkpoint is harmless — replay processes the delete after it.
		_ = wal.RemoveCheckpoint(s.cfg.DataDir, t.key)
	}
	s.mu.Lock()
	delete(s.tenants, t.key)
	s.mu.Unlock()
	t.eng.Close()
	return nil
}

// stats builds the keyspace's listing entry, the one KeyStats every
// endpoint answers with: the resolved spec the tenant was sized from (seed
// withheld — publishing it would hand any co-tenant the state compromise
// the seed-leak adversary needs), the ledger, and one engine reading's
// space and flip-budget state (nil for static tenants).
func (t *tenant) stats() KeyStats {
	echo := t.ts
	echo.Seed = 0
	r := t.eng.Read()
	return KeyStats{
		Key: t.key, Sketch: t.spec.Name, Policy: t.spec.Policy, Model: t.ts.Model,
		Shards: t.eng.Shards(), SpaceBytes: r.SpaceBytes,
		Mass: t.mass.Load(), DeletedMass: t.deleted.Load(),
		Spec: &echo, PointQueries: t.spec.points, Robustness: t.robustness(r),
	}
}

// robustness is a reading's flip-budget state in its wire form, nil for a
// static tenant. The policy is the declaration's.
func (t *tenant) robustness(r engine.Reading) *RobustnessStats {
	if !r.Robust {
		return nil
	}
	return &RobustnessStats{
		Policy:    t.spec.Policy,
		Copies:    r.Robustness.Copies,
		Switches:  r.Robustness.Switches,
		Budget:    r.Robustness.Budget,
		Remaining: r.Robustness.Remaining(),
		Exhausted: r.Robustness.Exhausted,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodGet) {
		return
	}
	ts := s.tenantList()
	resp := StatsResponse{Keys: len(ts), MaxKeys: s.cfg.MaxKeys, Draining: s.draining.Load()}
	for _, t := range ts {
		resp.Tenants = append(resp.Tenants, t.stats())
	}
	writeJSON(w, http.StatusOK, resp)
}
