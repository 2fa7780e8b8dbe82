package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// defaultEps is the -eps every sketchd of the benchmark starts with; a
// tenant that declares no ε of its own is checked against it.
const defaultEps = 0.3

func (t tenantDef) eps() float64 {
	if t.Spec.Eps != 0 {
		return t.Spec.Eps
	}
	return defaultEps
}

// roundChecks runs at quiescence, after the last timed phase of a round:
// every tenant's answers against the exact truth of what the round's
// processes acknowledged, the flip budgets, memory, and — once, in the
// last round — the workload's own drill (crash recovery, replica
// convergence).
func (r *run) roundChecks(ctx context.Context) error {
	truth := newTruth(len(r.w.Tenants))
	for _, row := range r.sent {
		truth.AddBatches(r.pool, row)
	}
	c := r.dep.clients[0]
	if !r.w.Game {
		for i, t := range r.w.Tenants {
			if err := r.checkTenant(ctx, c, i, t, truth); err != nil {
				return err
			}
		}
	}
	if err := r.checkBudgets(ctx, c); err != nil {
		return err
	}

	rss, err := r.dep.hwm()
	if err != nil {
		return err
	}
	if r.w.Game && r.gameRSS > 0 {
		rss = r.gameRSS
	}
	r.rss = append(r.rss, rss)

	if r.round < rounds-1 {
		return nil
	}
	if r.w.Durable {
		if err := r.checkRecovery(ctx); err != nil {
			return err
		}
	}
	if r.w.Nodes > 1 {
		if err := r.checkReplicas(ctx); err != nil {
			return err
		}
	}
	return nil
}

// hwm is the summed peak resident set size of the deployment's processes,
// in MiB.
func (d *deployment) hwm() (float64, error) {
	sum := 0.0
	for _, p := range d.procs {
		mb, err := procHWM(p.Pid())
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// checkTenant compares tenant i's flushed answers with the exact truth:
// the estimate within the tenant's ε, and for point-querying tenants every
// point answer within the bound the server returned and every exact
// ε·‖f‖₂-heavy item present in the top-10.
func (r *run) checkTenant(ctx context.Context, c *client.Client, i int, t tenantDef, truth *Truth) error {
	info, err := server.InfoForSpec(t.Spec)
	if err != nil {
		return err
	}
	f := truth.freq[i]
	want := info.Truth(f)
	qs := []client.Query{{Kind: server.QueryEstimate}}
	var probes []uint64
	if info.PointQueries {
		probes = f.Support()
		sort.Slice(probes, func(a, b int) bool {
			ca, cb := f.Count(probes[a]), f.Count(probes[b])
			if ca != cb {
				return ca > cb
			}
			return probes[a] < probes[b]
		})
		if len(probes) > pointItems-2 {
			probes = probes[:pointItems-2]
		}
		probes = append(probes, universe+1, universe+2) // never generated: exact count 0
		for _, it := range probes {
			qs = append(qs, client.Query{Kind: server.QueryPoint, Item: server.U64(it)})
		}
		qs = append(qs, client.Query{Kind: server.QueryTopK, K: topK})
	}
	resp, err := c.Query(ctx, t.Key, qs)
	if err != nil {
		return fmt.Errorf("final query of %s: %w", t.Key, err)
	}
	if len(resp.Answers) != len(qs) {
		return fmt.Errorf("final query of %s: %d answers to %d queries", t.Key, len(resp.Answers), len(qs))
	}
	est := resp.Answers[0].Value
	r.res.check("estimate "+t.Key, within(est, want, t.eps()),
		"estimate %.6g, exact %.6g, ε %.2f", est, want, t.eps())
	if !info.PointQueries {
		return nil
	}
	for j, it := range probes {
		a := resp.Answers[1+j]
		exact := float64(f.Count(it))
		r.res.check(fmt.Sprintf("point %s[%d]", t.Key, it), math.Abs(a.Value-exact) <= a.ErrorBound,
			"answer %.6g, exact %.6g, bound %.6g", a.Value, exact, a.ErrorBound)
	}
	top := map[uint64]bool{}
	for _, iw := range resp.Answers[len(qs)-1].Items {
		top[uint64(iw.Item)] = true
	}
	for _, it := range f.L2HeavyHitters(t.eps()) {
		r.res.check(fmt.Sprintf("top-%d of %s holds heavy item %d", topK, t.Key, it), top[it],
			"exact count %d of ‖f‖₂ %.6g is missing from the answer set", f.Count(it), f.L2())
	}
	return nil
}

// checkBudgets reads /v1/stats: every robust tenant must report a budget
// that is not exhausted.
func (r *run) checkBudgets(ctx context.Context, c *client.Client) error {
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	byKey := map[string]*server.KeyStats{}
	for i := range st.Tenants {
		byKey[st.Tenants[i].Key] = &st.Tenants[i]
	}
	switches, copies, used := 0, 0, 0.0
	for _, t := range r.w.Tenants {
		if !t.robust() {
			continue
		}
		ks := byKey[t.Key]
		if ks == nil {
			r.res.check("budget "+t.Key, false, "tenant is missing from /v1/stats")
			continue
		}
		rb := ks.Robustness
		if rb == nil {
			r.res.check("budget "+t.Key, false, "robust tenant reports no robustness state")
			continue
		}
		r.res.check("budget "+t.Key, !rb.Exhausted && (rb.Budget < 0 || rb.Switches <= rb.Budget),
			"exhausted=%v switches=%d budget=%d", rb.Exhausted, rb.Switches, rb.Budget)
		switches += rb.Switches
		copies += rb.Copies
		if rb.Budget > 0 {
			used = math.Max(used, float64(rb.Switches)/float64(rb.Budget))
		}
	}
	r.res.setValue("robust.switches", float64(switches))
	r.res.setValue("robust.copies_live", float64(copies))
	r.res.setValue("robust.budget_used_frac", used)
	return nil
}

// estimates reads every tenant's flushed estimate.
func (r *run) estimates(ctx context.Context, c *client.Client) ([]float64, error) {
	out := make([]float64, len(r.w.Tenants))
	for i, t := range r.w.Tenants {
		v, err := c.Estimate(ctx, t.Key)
		if err != nil {
			return nil, fmt.Errorf("estimate of %s: %w", t.Key, err)
		}
		out[i] = v
	}
	return out, nil
}

// checkRecovery is the crash drill of mixed_durable: SIGKILL the node,
// restart it on the same directory, time until healthz answers ok with
// every tenant back, and demand bit-identical estimates.
func (r *run) checkRecovery(ctx context.Context) error {
	d := r.dep
	before, err := r.estimates(ctx, d.clients[0])
	if err != nil {
		return err
	}
	h, _, err := d.clients[0].Healthz(ctx)
	if err != nil {
		return err
	}
	r.res.setValue("wal.checkpoints_written", float64(h.Checkpoints))
	old := d.procs[0]
	old.Kill()
	d.hc.CloseIdleConnections()
	t0 := time.Now()
	p, err := r.env.sb.Start(r.env.bin, old.Addr, d.nodeFlags[0]...)
	if err != nil {
		return err
	}
	d.procs[0] = p
	hctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := p.WaitHealthy(hctx, d.clients[0]); err != nil {
		return err
	}
	r.res.setValue("recovery_s", time.Since(t0).Seconds())

	if h, _, err = d.clients[0].Healthz(ctx); err != nil {
		return err
	}
	recovered := -1
	if h.Recovery != nil {
		recovered = h.Recovery.Tenants
		r.res.setValue("server.recovery_replayed_updates", float64(h.Recovery.ReplayedUpdates))
		r.res.setValue("wal.segments", float64(h.Recovery.WAL.Segments))
		r.res.setValue("wal.records", float64(h.Recovery.WAL.Records))
	}
	r.res.check("recovered every tenant", recovered == len(r.w.Tenants),
		"healthz reports %d recovered tenants, want %d", recovered, len(r.w.Tenants))
	after, err := r.estimates(ctx, d.clients[0])
	if err != nil {
		return err
	}
	for i, t := range r.w.Tenants {
		r.res.check("recovered estimate "+t.Key, math.Float64bits(before[i]) == math.Float64bits(after[i]),
			"estimate %v before the kill, %v after recovery", before[i], after[i])
	}
	return nil
}

// clusterCall performs one request against the /cluster/* surface, which
// internal/client does not wrap, and returns the body of a 200 reply. The
// body is always read to its end, so the keep-alive connection is reused.
func clusterCall(ctx context.Context, hc *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// placement asks node base where it puts key.
func placement(ctx context.Context, hc *http.Client, base, key string) (owner string, replicas []string, err error) {
	data, err := clusterCall(ctx, hc, http.MethodGet, base+"/cluster/place?key="+key, nil)
	if err != nil {
		return "", nil, err
	}
	var pr struct {
		Owner    string   `json:"owner"`
		Replicas []string `json:"replicas"`
	}
	if err := json.Unmarshal(data, &pr); err != nil {
		return "", nil, err
	}
	return pr.Owner, pr.Replicas, nil
}

// pull fetches node base's own copy of key as a ship frame.
func pull(ctx context.Context, hc *http.Client, base, key string) (*wire.Ship, error) {
	data, err := clusterCall(ctx, hc, http.MethodGet, base+"/cluster/pull?key="+key, nil)
	if err != nil {
		return nil, err
	}
	var sh wire.Ship
	if err := wire.DecodeShip(data, &sh); err != nil {
		return nil, err
	}
	return &sh, nil
}

// clusterQuery posts a JSON query batch to /cluster/query on base, the
// global query entry point.
func clusterQuery(ctx context.Context, hc *http.Client, base, key string, qs []client.Query, mergeAll bool) (*server.QueryResponse, error) {
	body, err := json.Marshal(server.QueryRequest{Key: key, Queries: qs})
	if err != nil {
		return nil, err
	}
	u := base + "/cluster/query"
	if mergeAll {
		u += "?merge=all"
	}
	data, err := clusterCall(ctx, hc, http.MethodPost, u, body)
	if err != nil {
		return nil, err
	}
	var out server.QueryResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// shipNow forces one synchronous ship round on every node, after which
// every replica holds its owner's current state.
func (d *deployment) shipNow(ctx context.Context) error {
	for _, p := range d.procs {
		if _, err := clusterCall(ctx, d.hc, http.MethodPost, p.URL+"/cluster/ship-now", nil); err != nil {
			return err
		}
	}
	return nil
}

// checkReplicas is the drill of cluster_r2: after one forced ship round
// every replica's copy must equal its owner's byte for byte, and an answer
// obtained through the redirect must equal the owner's local answer.
func (r *run) checkReplicas(ctx context.Context) error {
	d := r.dep
	t0 := time.Now()
	if err := d.shipNow(ctx); err != nil {
		return err
	}
	converged := time.Since(t0)
	for _, t := range r.w.Tenants {
		owner, replicas, err := placement(ctx, d.hc, d.procs[0].URL, t.Key)
		if err != nil {
			return err
		}
		own, err := pull(ctx, d.hc, owner, t.Key)
		if err != nil {
			return err
		}
		for _, rep := range replicas {
			if rep == owner {
				continue
			}
			got, err := pull(ctx, d.hc, rep, t.Key)
			if err != nil {
				return err
			}
			r.res.check("replica of "+t.Key+" equals its owner", bytes.Equal(own.State, got.State) && own.Mass == got.Mass,
				"owner %s holds %d state bytes (mass %d), replica %s holds %d (mass %d)",
				owner, len(own.State), own.Mass, rep, len(got.State), got.Mass)
		}
		qs := []client.Query{{Kind: server.QueryEstimate}}
		local, err := clusterQuery(ctx, d.hc, owner, t.Key, qs, false)
		if err != nil {
			return err
		}
		hop, err := clusterQuery(ctx, d.hc, d.replica[t.Key], t.Key, qs, false)
		if err != nil {
			return err
		}
		r.res.check("redirected answer of "+t.Key+" equals the owner's", reflect.DeepEqual(local.Answers, hop.Answers),
			"owner answered %+v, the redirect %+v", local.Answers, hop.Answers)
	}
	r.res.setValue("cluster.converge_ms", float64(converged.Microseconds())/1000)
	return nil
}
