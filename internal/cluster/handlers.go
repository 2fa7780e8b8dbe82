package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"repro/internal/server"
	"repro/internal/wire"
)

// The /cluster/* protocol. Peer-to-peer traffic (route exchange, ship,
// pull) speaks the binary frame codec; the operator surface (status,
// place, query, drain, ship-now — what cmd/sketchctl drives) speaks
// JSON. Everything else falls through to the underlying server's tenant
// API, so one listener serves both the cluster and its tenants.

// Handler returns the node's full HTTP surface: the cluster protocol
// mounted over the underlying server's handler.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/route", n.handleRoute)
	mux.HandleFunc("/cluster/ship", n.handleShip)
	mux.HandleFunc("/cluster/pull", n.handlePull)
	mux.HandleFunc("/cluster/query", n.handleQuery)
	mux.HandleFunc("/cluster/status", n.handleStatus)
	mux.HandleFunc("/cluster/place", n.handlePlace)
	mux.HandleFunc("/cluster/drain", n.handleDrain)
	mux.HandleFunc("/cluster/ship-now", n.handleShipNow)
	mux.Handle("/", n.srv.Handler())
	return mux
}

func clusterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func clusterFail(w http.ResponseWriter, status int, err error) {
	clusterJSON(w, status, server.ErrorResponse{Error: err.Error()})
}

func methodIs(w http.ResponseWriter, r *http.Request, m string) bool {
	if r.Method != m {
		w.Header().Set("Allow", m)
		clusterFail(w, http.StatusMethodNotAllowed, fmt.Errorf("%s requires %s", r.URL.Path, m))
		return false
	}
	return true
}

func readFrame(r *http.Request) ([]byte, error) {
	return io.ReadAll(io.LimitReader(r.Body, 64<<20))
}

// handleRoute serves POST /cluster/route: the failure detector's probe.
// The body is the sender's route frame; the response is ours. Merging
// the sender's view in (and the sender merging ours) is the gossip.
func (n *Node) handleRoute(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodPost) {
		return
	}
	body, err := readFrame(r)
	if err != nil {
		clusterFail(w, http.StatusBadRequest, err)
		return
	}
	var rt wire.RouteTable
	if err := wire.DecodeRoute(body, &rt); err != nil {
		clusterFail(w, http.StatusBadRequest, fmt.Errorf("bad route frame: %w", err))
		return
	}
	n.mergeRoutes(&rt)
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(wire.AppendRoute(nil, n.routeTable()))
}

// handleShip serves POST /cluster/ship: a peer replicating a tenant at
// us. A stale sequence or a refusal is a normal ShipAck answer, not an
// HTTP error — the shipper needs to distinguish "peer is current" from
// "peer is down", and only transport failures look like the latter.
func (n *Node) handleShip(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodPost) {
		return
	}
	body, err := readFrame(r)
	if err != nil {
		clusterFail(w, http.StatusBadRequest, err)
		return
	}
	var sh wire.Ship
	if err := wire.DecodeShip(body, &sh); err != nil {
		clusterFail(w, http.StatusBadRequest, fmt.Errorf("bad ship frame: %w", err))
		return
	}
	ack := wire.ShipAck{Key: sh.Key, Seq: sh.Seq}
	// The staleness check, the apply, and raising the key's sequence must
	// be one atomic step per key: two concurrent shipments for the same key
	// could otherwise both pass the check and apply in either order,
	// leaving the older state in place under the newer recorded sequence —
	// exactly the rollback the sequence check exists to prevent.
	k := n.seqOf(sh.Key)
	k.mu.Lock()
	switch {
	case n.selfDraining.Load():
		ack.Err = "draining"
	case sh.Seq <= k.seq:
		// Stale: we already hold this shipment or a newer one. Applying it
		// would roll us back (late ship from a deposed owner, duplicated
		// delivery, or a handoff push we do not need).
	default:
		if err := n.srv.ApplyShipment(sh.Key, sh.Spec, sh.State, sh.Mass, sh.Deleted); err != nil {
			ack.Err = err.Error()
		} else {
			ack.Applied = true
			k.seq = sh.Seq
		}
	}
	k.mu.Unlock()
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(wire.AppendShipAck(nil, &ack))
}

// handlePull serves GET /cluster/pull?key=: the local copy of a tenant
// as a ship frame at this node's current sequence. The merge-all query
// path uses it to gather peer envelopes; operators use it to inspect a
// replica.
func (n *Node) handlePull(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodGet) {
		return
	}
	key := r.URL.Query().Get("key")
	sh, err := n.srv.ShipTenant(key)
	if err != nil {
		clusterFail(w, http.StatusNotFound, err)
		return
	}
	sh.From, sh.Seq = n.cfg.Self, n.localSeq(key)
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(wire.AppendShip(nil, sh))
}

// handleQuery serves POST /cluster/query: the global query entry point.
// The body is the same JSON QueryRequest as POST /v2/query.
//
//   - Default (ownership mode): a non-owner answers 307 to the owner, so
//     the answer always comes from the freshest copy; the owner answers
//     locally.
//   - ?merge=all (fleet aggregation): the node pulls every live peer's
//     copy and answers from the additive cross-node fold — sound exactly
//     when the nodes ingest disjoint sub-streams (Forward off), which is
//     the caveat AnswerMerged enforces semantically and the README spells
//     out.
func (n *Node) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodPost) {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		clusterFail(w, http.StatusBadRequest, err)
		return
	}
	req, err := server.DecodeQueryRequest(body)
	if err != nil {
		clusterFail(w, http.StatusBadRequest, err)
		return
	}
	if r.URL.Query().Get("merge") == "all" {
		n.answerMergeAll(w, &req)
		return
	}
	if n.cfg.Forward {
		if owner := n.Owner(req.Key); owner != n.cfg.Self {
			http.Redirect(w, r, owner+r.URL.RequestURI(), http.StatusTemporaryRedirect)
			return
		}
	}
	resp, status, err := n.srv.AnswerLocal(&req)
	if err != nil {
		clusterFail(w, status, err)
		return
	}
	clusterJSON(w, http.StatusOK, resp)
}

// answerMergeAll gathers every live member's copy of the key and answers
// from the additive fold. Peers without the key (404) are skipped; a
// live peer that fails mid-pull aborts the query rather than silently
// under-counting.
func (n *Node) answerMergeAll(w http.ResponseWriter, req *server.QueryRequest) {
	var envelopes [][]byte
	if local, err := n.srv.ShipTenant(req.Key); err == nil && len(local.State) > 0 {
		envelopes = append(envelopes, local.State)
	}
	for _, m := range n.members {
		p := n.peers[m]
		if p == nil || p.down.Load() {
			continue
		}
		resp, err := n.hc.Get(p.addr + "/cluster/pull?key=" + url.QueryEscape(req.Key))
		if err != nil {
			clusterFail(w, http.StatusBadGateway, fmt.Errorf("pull from %s: %w", p.addr, err))
			return
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			continue // peer never saw this key
		}
		if rerr != nil || resp.StatusCode != http.StatusOK {
			clusterFail(w, http.StatusBadGateway, fmt.Errorf("pull from %s: %s", p.addr, resp.Status))
			return
		}
		var sh wire.Ship
		if err := wire.DecodeShip(body, &sh); err != nil {
			clusterFail(w, http.StatusBadGateway, fmt.Errorf("pull from %s: bad ship frame: %v", p.addr, err))
			return
		}
		if len(sh.State) > 0 {
			envelopes = append(envelopes, sh.State)
		}
	}
	resp, status, err := n.srv.AnswerMerged(req, envelopes)
	if err != nil {
		clusterFail(w, status, err)
		return
	}
	clusterJSON(w, http.StatusOK, resp)
}

// StatusResponse is the GET /cluster/status body.
type StatusResponse struct {
	Self         string       `json:"self"`
	Seq          uint64       `json:"seq"`
	Draining     bool         `json:"draining"`
	Replicas     int          `json:"replicas"`
	ShipInterval string       `json:"ship_interval"`
	Forward      bool         `json:"forward"`
	Keys         int          `json:"keys"`
	Peers        []PeerStatus `json:"peers"`
}

// PeerStatus is one remote member in a StatusResponse.
type PeerStatus struct {
	Addr     string `json:"addr"`
	Down     bool   `json:"down"`
	Draining bool   `json:"draining"`
	Seq      uint64 `json:"seq"`
}

// handleStatus serves GET /cluster/status: this node's view of the ring.
func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodGet) {
		return
	}
	resp := StatusResponse{
		Self:         n.cfg.Self,
		Seq:          n.selfSeq.Load(),
		Draining:     n.selfDraining.Load(),
		Replicas:     n.cfg.Replicas,
		ShipInterval: n.cfg.ShipInterval.String(),
		Forward:      n.cfg.Forward,
		Keys:         len(n.srv.Keys()),
	}
	for _, m := range n.members {
		if p := n.peers[m]; p != nil {
			resp.Peers = append(resp.Peers, PeerStatus{
				Addr: p.addr, Down: p.down.Load(),
				Draining: p.draining.Load(), Seq: p.seq.Load(),
			})
		}
	}
	clusterJSON(w, http.StatusOK, resp)
}

// PlacementResponse is the GET /cluster/place body.
type PlacementResponse struct {
	Key string `json:"key"`
	// Order is the full rendezvous preference order, liveness ignored.
	Order []string `json:"order"`
	// Owner and Replicas are the live placement under this node's view.
	Owner    string   `json:"owner"`
	Replicas []string `json:"replicas"`
}

// handlePlace serves GET /cluster/place?key=: where this node's view
// puts the key.
func (n *Node) handlePlace(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodGet) {
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		clusterFail(w, http.StatusBadRequest, fmt.Errorf("missing key"))
		return
	}
	clusterJSON(w, http.StatusOK, PlacementResponse{
		Key: key, Order: n.Place(key), Owner: n.Owner(key), Replicas: n.Replicas(key),
	})
}

// DrainResponse is the POST /cluster/drain and /cluster/ship-now body.
type DrainResponse struct {
	Draining bool `json:"draining"`
	// Shipped counts the shipments peers applied during the hand-off round.
	Shipped int `json:"shipped"`
}

// handleDrain serves POST /cluster/drain: remove this node from
// placement and hand its tenants off.
func (n *Node) handleDrain(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodPost) {
		return
	}
	shipped := n.Drain()
	clusterJSON(w, http.StatusOK, DrainResponse{Draining: true, Shipped: shipped})
}

// handleShipNow serves POST /cluster/ship-now: one synchronous
// rebalance round outside the cadence.
func (n *Node) handleShipNow(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodPost) {
		return
	}
	shipped := n.ShipNow()
	clusterJSON(w, http.StatusOK, DrainResponse{Draining: n.selfDraining.Load(), Shipped: shipped})
}
