package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// Config declares one node's view of the cluster. Membership is static:
// Peers is the full member list (Self included or not — it is added),
// identical on every node, and liveness within it is what the probe loop
// tracks.
type Config struct {
	// Self is this node's advertised base URL, e.g. "http://127.0.0.1:9001".
	// Peers must reach the node at exactly this address; it is also the
	// node's identity in the ring.
	Self string
	// Peers are the advertised base URLs of every cluster member.
	Peers []string
	// Replicas is the replication factor R: each tenant lives on its owner
	// plus R−1 replicas. Defaults to 2, capped at the member count.
	Replicas int
	// ShipInterval is the replication cadence; each tick the owner ships
	// every owned tenant's snapshot to its replicas. Replicas are therefore
	// bounded-stale by at most this interval. Defaults to 2s.
	ShipInterval time.Duration
	// ProbeInterval is the failure-detector cadence. Defaults to 1s.
	ProbeInterval time.Duration
	// SuspectAfter is how many consecutive failed probes mark a peer down.
	// Defaults to 3.
	SuspectAfter int
	// Forward enables ownership routing: tenant traffic landing on a
	// non-owner answers 307 to the owner, and the ship loop replicates
	// owned tenants. With Forward off the node is part of an independently
	// ingesting fleet: every node keeps its own sub-stream, nothing is
	// redirected or replicated, and global answers come from the
	// merge-all query path.
	Forward bool
	// Client is the HTTP client for peer traffic; defaults to a 5s-timeout
	// client.
	Client *http.Client
}

// peerState is the detector's view of one remote member. The fields are
// atomics because the probe loop writes them while placement reads them
// on every request — and because probe rounds themselves can overlap
// (the ticker loop and an operator-initiated Drain both call probeAll).
type peerState struct {
	addr     string
	down     atomic.Bool
	draining atomic.Bool
	seq      atomic.Uint64
	fails    atomic.Int32 // consecutive probe failures
}

// Node binds a server.Server into a cluster: it owns the placement ring,
// the probe and ship loops, and the /cluster/* protocol handlers, and —
// when forwarding is on — installs the server's redirect hook so tenant
// traffic finds its owner from any member.
type Node struct {
	cfg     Config
	srv     *server.Server
	hc      *http.Client
	members []string // sorted, includes Self

	selfSeq      atomic.Uint64
	selfDraining atomic.Bool

	mu      sync.Mutex
	shipSeq map[string]uint64      // per key: last Seq this node shipped as owner
	applied map[string]uint64      // per key: last Seq applied from a peer's ship
	keyMu   map[string]*sync.Mutex // per key: serializes ship check-then-apply

	peers map[string]*peerState // remote members only; immutable after New

	// shipNow wakes the ship loop for an immediate round after a liveness
	// transition. Buffered so a view change never blocks, and coalescing:
	// a burst of transitions triggers one round.
	shipNow chan struct{}

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New binds srv into a cluster node. It validates and defaults the
// config and, when cfg.Forward is set, installs the server's forwarding
// hook; call Start to launch the probe and ship loops and Close to tear
// them down.
func New(srv *server.Server, cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self address is required")
	}
	set := map[string]bool{cfg.Self: true}
	for _, p := range cfg.Peers {
		if p != "" {
			set[p] = true
		}
	}
	members := make([]string, 0, len(set))
	for m := range set {
		members = append(members, m)
	}
	sort.Strings(members)
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(members) {
		cfg.Replicas = len(members)
	}
	if cfg.ShipInterval <= 0 {
		cfg.ShipInterval = 2 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Second}
	}
	n := &Node{
		cfg:     cfg,
		srv:     srv,
		hc:      hc,
		members: members,
		shipSeq: make(map[string]uint64),
		applied: make(map[string]uint64),
		keyMu:   make(map[string]*sync.Mutex),
		peers:   make(map[string]*peerState, len(members)-1),
		shipNow: make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	for _, m := range members {
		if m != cfg.Self {
			n.peers[m] = &peerState{addr: m}
		}
	}
	n.selfSeq.Store(1)
	if cfg.Forward {
		srv.SetForwarder(func(key string) (string, bool) {
			owner := n.Owner(key)
			if owner == n.cfg.Self {
				return "", false
			}
			return owner, true
		})
	}
	return n, nil
}

// Start launches the probe and ship loops. A single-member cluster has
// neither peers to probe nor replicas to ship to, so the loops idle.
func (n *Node) Start() {
	n.wg.Add(2)
	go n.probeLoop()
	go n.shipLoop()
}

// Close stops the loops and uninstalls the forwarding hook. It does not
// shut the underlying server down — that remains the caller's lifecycle.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
	n.srv.SetForwarder(nil)
}

// ---------------------------------------------------------------------------
// Placement

// aliveFilter reports whether addr currently places tenants: reachable
// and not draining.
func (n *Node) aliveFilter(addr string) bool {
	if addr == n.cfg.Self {
		return !n.selfDraining.Load()
	}
	p := n.peers[addr]
	return p != nil && !p.down.Load() && !p.draining.Load()
}

// Place returns the key's full preference order over all members,
// ignoring liveness — the deterministic ranking every node agrees on.
func (n *Node) Place(key string) []string {
	return rank(n.members, key)
}

// Owner returns the key's current owner: the first alive node in the
// preference order, falling back to the first node outright if the
// detector sees nobody alive (a partitioned minority keeps a stable,
// if unreachable, answer instead of flapping).
func (n *Node) Owner(key string) string {
	order := n.Place(key)
	for _, addr := range order {
		if n.aliveFilter(addr) {
			return addr
		}
	}
	return order[0]
}

// Replicas returns the key's current replica set — the first R alive
// nodes in preference order, owner first. Shorter than R when fewer
// members are alive.
func (n *Node) Replicas(key string) []string {
	out := make([]string, 0, n.cfg.Replicas)
	for _, addr := range n.Place(key) {
		if n.aliveFilter(addr) {
			out = append(out, addr)
			if len(out) == n.cfg.Replicas {
				break
			}
		}
	}
	if len(out) == 0 {
		out = append(out, n.Owner(key))
	}
	return out
}

// ---------------------------------------------------------------------------
// Membership view exchange

// routeTable snapshots this node's view of the membership.
func (n *Node) routeTable() *wire.RouteTable {
	rt := &wire.RouteTable{From: n.cfg.Self}
	rt.Entries = append(rt.Entries, wire.RouteEntry{
		Addr: n.cfg.Self, Seq: n.selfSeq.Load(), Draining: n.selfDraining.Load(),
	})
	for _, m := range n.members {
		if p := n.peers[m]; p != nil {
			rt.Entries = append(rt.Entries, wire.RouteEntry{
				Addr: p.addr, Seq: p.seq.Load(), Draining: p.draining.Load(),
			})
		}
	}
	return rt
}

// mergeRoutes folds a peer's view into ours: per entry the higher
// incarnation Seq wins, so a drain announced once propagates through any
// live path. Entries about ourselves are handled SWIM-style: draining is
// a local decision, so we never adopt the gossiped flag — instead, when
// the cluster holds an entry about us that contradicts our state or
// outranks our incarnation (stale gossip from a prior life, e.g. a drain
// announced before a restart), we jump our Seq strictly past it so the
// next announcement refutes it everywhere. Merely fast-forwarding to an
// equal Seq is not enough: equal-Seq entries never outrank the stale
// (Seq, draining=true) copy peers already hold, and the restarted node
// would stay excluded from placement forever.
func (n *Node) mergeRoutes(rt *wire.RouteTable) {
	for _, e := range rt.Entries {
		if e.Addr == n.cfg.Self {
			for {
				cur := n.selfSeq.Load()
				// In-rank gossip that agrees with our state needs no
				// refutation; bumping on every echo of our own announcement
				// would grow Seq without bound.
				if e.Seq < cur || (e.Seq == cur && e.Draining == n.selfDraining.Load()) {
					break
				}
				if n.selfSeq.CompareAndSwap(cur, e.Seq+1) {
					break
				}
			}
			continue
		}
		p := n.peers[e.Addr]
		if p == nil {
			continue // not a member in our static list
		}
		for {
			cur := p.seq.Load()
			if e.Seq < cur {
				break
			}
			if p.seq.CompareAndSwap(cur, e.Seq) {
				if e.Seq > cur {
					p.draining.Store(e.Draining)
				}
				break
			}
		}
	}
	// Hearing from a peer at all proves it is up, whatever our prober
	// thinks: an incoming probe resets the detector immediately, which is
	// what makes recovery convergence one round-trip, not SuspectAfter.
	if p := n.peers[rt.From]; p != nil && p.down.Load() {
		p.down.Store(false)
		n.viewChanged()
	}
}

// ---------------------------------------------------------------------------
// Failure detection

func (n *Node) probeLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.probeAll()
		}
	}
}

// probeAll posts this node's route table to every peer; the response is
// the peer's table, merged back in. Probe and gossip are the same
// message. Peers are probed concurrently: a dead peer costs one client
// timeout, not one timeout per dead peer per round, so time-to-detection
// stays near SuspectAfter×ProbeInterval however many members are down.
func (n *Node) probeAll() {
	frame := wire.AppendRoute(nil, n.routeTable())
	var changed atomic.Bool
	var wg sync.WaitGroup
	for _, m := range n.members {
		p := n.peers[m]
		if p == nil {
			continue
		}
		wg.Add(1)
		go func(p *peerState) {
			defer wg.Done()
			body, err := n.postFrame(p.addr, "/cluster/route", frame)
			if err != nil {
				if p.fails.Add(1) >= int32(n.cfg.SuspectAfter) && !p.down.Load() {
					p.down.Store(true)
					changed.Store(true)
				}
				return
			}
			p.fails.Store(0)
			if p.down.Load() {
				p.down.Store(false)
				changed.Store(true)
			}
			var rt wire.RouteTable
			if err := wire.DecodeRoute(body, &rt); err == nil {
				n.mergeRoutes(&rt)
			}
		}(p)
	}
	wg.Wait()
	if changed.Load() {
		n.viewChanged()
	}
}

// viewChanged reacts to a liveness transition: ownership just moved, so
// request an immediate ship round — a freshly promoted owner replicates
// its copies to its new replica set, and survivors holding copies of
// keys whose owner changed push them to the new owner — instead of
// waiting out the ship tick. The round runs on the ship loop's
// goroutine (never a detached one), so Close() cannot return while a
// round still touches the server or peers.
func (n *Node) viewChanged() {
	if !n.cfg.Forward {
		return
	}
	select {
	case n.shipNow <- struct{}{}:
	default: // a round is already pending; it will see the new view
	}
}

// ---------------------------------------------------------------------------
// Replication shipping

func (n *Node) shipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.ShipInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			if n.cfg.Forward {
				n.shipRound()
			}
		case <-n.shipNow:
			if n.cfg.Forward {
				n.shipRound()
			}
		}
	}
}

// keyLock returns the mutex serializing shipment application for key.
// The replica-side check-then-apply (staleness test, ApplyShipment,
// applied-map record) must be atomic per key: concurrent ship rounds —
// the shipper's ticker plus a view-change round — can deliver two
// shipments for the same key, and without the lock the older one can
// apply last while the newer sequence is what gets recorded.
func (n *Node) keyLock(key string) *sync.Mutex {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := n.keyMu[key]
	if m == nil {
		m = &sync.Mutex{}
		n.keyMu[key] = m
	}
	return m
}

// localSeq is the highest shipment sequence this node knows for key —
// what it last shipped as owner or last applied as replica. Caller holds
// no locks.
func (n *Node) localSeq(key string) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.shipSeq[key]
	if a := n.applied[key]; a > s {
		s = a
	}
	return s
}

// nextShipSeq allocates the next shipment sequence for key as its owner.
func (n *Node) nextShipSeq(key string) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.shipSeq[key]
	if a := n.applied[key]; a > s {
		s = a
	}
	s++
	n.shipSeq[key] = s
	return s
}

// shipRound replicates every local tenant once. Keys this node owns ship
// to their replicas with a fresh sequence; keys owned elsewhere are
// pushed to their owner at our current sequence — a no-op when the owner
// is up to date (it refuses stale sequences), a state handoff when the
// owner is freshly promoted or freshly rebooted and behind. Returns how
// many shipments peers applied.
func (n *Node) shipRound() int {
	appliedCount := 0
	for _, key := range n.srv.Keys() {
		owner := n.Owner(key)
		var targets []string
		var seq uint64
		if owner == n.cfg.Self {
			reps := n.Replicas(key)
			if len(reps) <= 1 {
				continue
			}
			targets = reps[1:]
			seq = n.nextShipSeq(key)
		} else {
			// Handoff push: same sequence we already hold, so a live owner
			// ignores it and only a behind owner adopts it.
			targets = []string{owner}
			seq = n.localSeq(key)
			if seq == 0 {
				// Never shipped or applied: this copy predates clustering
				// (or Forward was off). Claim sequence 1 so the owner can
				// adopt it at all.
				seq = 1
			}
		}
		sh, err := n.srv.ShipTenant(key)
		if err != nil {
			continue // deleted concurrently
		}
		sh.From, sh.Seq = n.cfg.Self, seq
		frame := wire.AppendShip(nil, sh)
		for _, tgt := range targets {
			if tgt == n.cfg.Self {
				continue
			}
			body, err := n.postFrame(tgt, "/cluster/ship", frame)
			if err != nil {
				continue // the detector will notice a dead peer
			}
			var ack wire.ShipAck
			if err := wire.DecodeShipAck(body, &ack); err == nil && ack.Applied {
				appliedCount++
			}
		}
	}
	return appliedCount
}

// ShipNow runs one synchronous ship round regardless of the cadence —
// the rebalance verb: after a drain or recovery, push state where the
// current view says it belongs.
func (n *Node) ShipNow() int {
	return n.shipRound()
}

// Drain removes this node from placement: it announces a new draining
// incarnation (gossiped by the next probe exchange) and immediately
// ships every local tenant to wherever the post-drain view places it.
// The node keeps serving reads for keys it still holds; Forwarding sends
// new traffic to the new owners.
func (n *Node) Drain() int {
	n.selfDraining.Store(true)
	n.selfSeq.Add(1)
	n.probeAll() // propagate the draining flag before clients re-route
	return n.shipRound()
}

// Draining reports whether this node is shedding ownership.
func (n *Node) Draining() bool { return n.selfDraining.Load() }

// ---------------------------------------------------------------------------
// Peer HTTP

// postFrame posts a binary frame to a peer endpoint and returns the
// response body. Any non-200 status is an error (cluster endpoints
// answer protocol-level refusals inside the frame, not via status).
func (n *Node) postFrame(addr, path string, frame []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, addr+path, bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := n.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s%s: %s", addr, path, resp.Status)
	}
	return body, nil
}
