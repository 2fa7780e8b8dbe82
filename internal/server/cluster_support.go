package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/engine"
	"repro/internal/wire"
)

// Cluster support: the server-side primitives internal/cluster composes
// into a multi-node service. The cluster layer owns placement, failure
// detection and the ship/ack protocol; this file owns everything that
// must touch tenant internals — serializing a tenant into a shipment,
// installing a shipped copy, folding peer envelopes into a scratch
// engine for cross-node queries, and redirecting tenant traffic the
// placement layer says belongs elsewhere.

// ShipTenant serializes tenant key for replication as a wire.Ship with
// Key, Spec, State, Mass and Deleted filled (tenant.export); the cluster
// layer stamps From and Seq. It exports under the tenant's write lock, as a
// checkpoint does, so the state is the one after an acknowledged batch and
// Mass and Deleted are that state's. Spec carries the resolved seed, which
// is why a shipment is a server-to-server surface: handing one to a tenant
// would leak the seed the API everywhere else withholds. Non-mergeable
// (robust-policy) tenants ship as spec-only declarations (State nil, Mass
// 0): replication preserves the declaration and the replica rebuilds state
// only if the key fails over to it and the stream is replayed by clients.
func (s *Server) ShipTenant(key string) (*wire.Ship, error) {
	t := s.lookup(key)
	if t == nil {
		return nil, fmt.Errorf("unknown key %q", key)
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	return t.export(true)
}

// ApplyShipment installs a replication shipment: the tenant is rebuilt
// from the shipped spec and state (Server.rebuild), and the copy replaces
// whatever the key held locally — replica state is the owner's last
// shipment, not an additive fold (adding two copies of the same stream
// would double count it).
//
// Durability is deferred: the spec is journaled (so a restarted replica
// still knows the tenant), but the state rides the CheckpointEvery
// cadence — each ship is one coalesced contribution, not one fsync (see
// cadence). A replica that crashes between checkpoints recovers a stale
// copy and is refreshed by the owner's next ship round.
//
// A replacement unmaps the held tenant, and like every write and checkpoint
// it does so under that tenant's lock, past writable's checks: it locks the
// new tenant (nobody else can see it yet), then the held one, and swaps only
// while the server is not draining and the key still maps to the held one.
//
// A shipment without state (a robust tenant's) leaves a tenant held under
// the same declaration as it is: a rebuild would reset the stream it has
// applied, a restarted owner's recovered one included, to nothing.
func (s *Server) ApplyShipment(key string, specJSON, state []byte, mass, deleted int64) error {
	if key == "" {
		return fmt.Errorf("missing key")
	}
	if s.draining.Load() {
		return errDraining
	}
	old := s.lookup(key)
	if old != nil && len(state) == 0 {
		if held, err := json.Marshal(old.ts); err == nil && string(held) == string(specJSON) {
			return nil
		}
	}
	t, err := s.rebuild(key, specJSON, state, mass, deleted)
	if err != nil {
		return fmt.Errorf("shipment for %q: %w", key, err)
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if old != nil {
		old.writeMu.Lock()
		defer old.writeMu.Unlock()
	}
	// swap logs what recovery needs to re-declare t in place of old and maps
	// it; if it cannot, the shipment is refused and old stays.
	swap := func() (err error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		switch {
		case s.draining.Load():
			return errDraining
		case s.tenants[key] != old:
			return fmt.Errorf("%w: keyspace %q changed concurrently; shipment not applied", errGone, key)
		case old == nil:
			err = s.logCreate(t)
		case old.ts != t.ts:
			// The owner re-declared the tenant: journal the replacement so
			// recovery rebuilds the new declaration, not the old one.
			if err = s.logDelete(key); err == nil {
				err = s.logCreate(t)
			}
		default:
			// Same declaration: the shipment only refreshes state, and state
			// persistence rides the checkpoint cadence. Carry the counter
			// over so coalescing accumulates across ships.
			t.sinceCkpt = old.sinceCkpt
		}
		if err == nil {
			s.tenants[key] = t
		}
		return err
	}
	if err := swap(); err != nil {
		t.eng.Close()
		return err
	}
	if old != nil {
		old.eng.Close()
	}
	s.cadence(t, s.deferredCheckpointWeight())
	return nil
}

// Keys returns the tenant keys this server holds, sorted.
func (s *Server) Keys() []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.tenants))
	for k := range s.tenants {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// AnswerLocal answers a JSON-shaped query batch from the local tenant
// engine, through the same check and answer as POST /v2/query. On error the
// returned status is the HTTP code that handler would have used.
func (s *Server) AnswerLocal(req *QueryRequest) (*QueryResponse, int, error) {
	wq, err := req.Frame()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	resp, status, err := s.answerLocal(&wq)
	if err != nil {
		return nil, status, err
	}
	return ResponseFromFrame(resp), status, nil
}

// answerLocal answers a checked batch from the local tenant's engine.
func (s *Server) answerLocal(req *wire.QueryRequest) (*wire.QueryResponse, int, error) {
	t := s.lookup(req.Key)
	if t == nil {
		return nil, http.StatusNotFound, fmt.Errorf("unknown key %q", req.Key)
	}
	return s.answerQuery(t, t.eng, req)
}

// AnswerMerged answers a JSON-shaped query batch from a scratch engine
// built by folding the given snapshot envelopes together — the engine's
// cross-shard merge generalized to cross-node fan-out. The tenant must
// exist locally (it supplies the resolved spec and seeds for the scratch
// engine). The fold is additive, so it is sound exactly when the
// envelopes describe disjoint sub-streams (independently ingesting
// nodes, the fleet-aggregation pattern) — folding replicas of one stream
// would double count it, which is why replication uses replace-on-ship
// instead.
func (s *Server) AnswerMerged(req *QueryRequest, envelopes [][]byte) (*QueryResponse, int, error) {
	wq, err := req.Frame()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	t := s.lookup(req.Key)
	if t == nil {
		return nil, http.StatusNotFound, fmt.Errorf("unknown key %q", req.Key)
	}
	if !t.spec.Mergeable() {
		return nil, http.StatusNotImplemented,
			fmt.Errorf("keyspace %q hosts %s, which is not mergeable across nodes", t.key, t.spec.Display())
	}
	scratch := s.newTenant(t.key, t.spec, t.ts)
	defer scratch.eng.Close()
	for i, env := range envelopes {
		if err := scratch.fold(env); err != nil {
			return nil, http.StatusConflict, fmt.Errorf("envelope %d: %w", i, err)
		}
	}
	resp, status, err := s.answerQuery(t, scratch.eng, &wq)
	if err != nil {
		return nil, status, err
	}
	return ResponseFromFrame(resp), status, nil
}

// answerQuery routes a checked query batch into one engine pass and
// builds its answer, for every query route. eng is the engine to read
// (the tenant's live engine, or a scratch merge engine sharing its spec
// and seeds): points and top-k come from its QueryBatch visit, and the
// estimate, the point bound and the flip-budget state from one reading
// after it.
func (s *Server) answerQuery(t *tenant, eng *engine.Engine, req *wire.QueryRequest) (*wire.QueryResponse, int, error) {
	var pointItems []uint64
	maxK := 0
	for _, q := range req.Queries {
		switch q.Kind {
		case wire.KindPoint:
			pointItems = append(pointItems, q.Item)
		case wire.KindTopK:
			maxK = max(maxK, q.K)
		}
	}
	if (len(pointItems) > 0 || maxK > 0) && !t.spec.points {
		return nil, http.StatusBadRequest,
			fmt.Errorf("keyspace %q hosts %s, which does not answer point or topk queries (countsketch+none and countsketch+ring do)",
				t.key, t.spec.Display())
	}

	_, pointVals, top, err := eng.QueryBatch(pointItems, maxK)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	r := eng.Read()
	pointBound := 0.0
	if t.spec.points && t.spec.l2Of != nil {
		pointBound = t.ts.Eps * t.spec.l2Of(r.Estimate)
	}

	resp := &wire.QueryResponse{
		Key: t.key, Sketch: t.spec.Name, Policy: t.spec.Policy, Model: t.ts.Model,
		Answers: make([]wire.Answer, len(req.Queries)), Robustness: t.robustness(r),
	}
	nextPoint := 0
	for i, q := range req.Queries {
		switch q.Kind {
		case wire.KindEstimate:
			resp.Answers[i] = wire.Answer{Kind: q.Kind, Value: r.Estimate, ErrorBound: t.ts.Eps, Additive: t.spec.additive}
		case wire.KindPoint:
			resp.Answers[i] = wire.Answer{Kind: q.Kind, HasItem: true, Item: q.Item, Value: pointVals[nextPoint], ErrorBound: pointBound}
			nextPoint++
		case wire.KindTopK:
			resp.Answers[i] = wire.Answer{Kind: q.Kind, Items: top[:min(len(top), q.K)], ErrorBound: pointBound}
		}
	}
	return resp, http.StatusOK, nil
}

// ---------------------------------------------------------------------------
// Forwarding

// SetForwarder installs the placement hook: tenant-scoped handlers call
// it with the request's key and, when it reports another node as the
// key's owner, answer 307 Temporary Redirect to that node's base URL
// (e.g. "http://10.0.0.2:8080") instead of touching local state. Clients
// follow the redirect re-sending the body (the Go client's request
// bodies are replayable), so any node of a cluster accepts any tenant's
// traffic. Server-wide endpoints (/v1/stats, /v1/healthz) and the
// cluster protocol itself are never forwarded. Pass nil to uninstall.
func (s *Server) SetForwarder(fn func(key string) (target string, forward bool)) {
	if fn == nil {
		s.forwarder.Store(nil)
		return
	}
	s.forwarder.Store(&fn)
}

// forwarded redirects the request to key's owner if a forwarder is
// installed and places the key elsewhere, reporting whether it did.
func (s *Server) forwarded(w http.ResponseWriter, r *http.Request, key string) bool {
	fp := s.forwarder.Load()
	if fp == nil || key == "" {
		return false
	}
	target, ok := (*fp)(key)
	if !ok {
		return false
	}
	http.Redirect(w, r, target+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	return true
}

// ---------------------------------------------------------------------------
// Health

// HealthResponse is the GET /v1/healthz body: liveness (the 200 itself),
// readiness (status "ok" versus a 503 with "draining" or "recovering"),
// and the WAL and checkpoint counters a failure detector or load balancer
// wants next to the verdict.
type HealthResponse struct {
	Status      string         `json:"status"` // "ok" | "draining" | "recovering"
	Draining    bool           `json:"draining"`
	Recovering  bool           `json:"recovering"`
	Durable     bool           `json:"durable"`
	Keys        int            `json:"keys"`
	MaxKeys     int            `json:"max_keys"`
	Checkpoints int64          `json:"checkpoints_written"`
	Recovery    *RecoveryStats `json:"recovery,omitempty"`
}

// handleHealthz serves GET /v1/healthz. A draining server answers 503 —
// it still reads, but a balancer must stop routing new write traffic at
// it. (The 503 during boot recovery comes from cmd/sketchd, which serves
// a recovering stub on the listener while Open replays the log; by the
// time this handler is mounted, recovery is complete.)
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodGet) {
		return
	}
	s.mu.Lock()
	keys := len(s.tenants)
	s.mu.Unlock()
	resp := HealthResponse{
		Status:      "ok",
		Draining:    s.draining.Load(),
		Durable:     s.wal != nil,
		Keys:        keys,
		MaxKeys:     s.cfg.MaxKeys,
		Checkpoints: s.ckptWrites.Load(),
	}
	if s.wal != nil {
		rec := s.recovery
		resp.Recovery = &rec
	}
	status := http.StatusOK
	if resp.Draining {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// deferredCheckpointWeight is the debounce contribution of one applied
// shipment: roughly eight of them coalesce into one checkpoint, instead of
// each paying a synchronous fsync.
func (s *Server) deferredCheckpointWeight() int {
	if w := s.cfg.CheckpointEvery / 8; w > 0 {
		return w
	}
	return 1
}
