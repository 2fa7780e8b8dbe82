package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/waltest"
	"repro/internal/wire"
)

// call serves one request on h in process.
func call(h http.Handler, method, url string, body []byte, ct, accept string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, url, bytes.NewReader(body))
	if ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// declare creates key on h from spec, failing tb on any answer but 200.
func declare(tb testing.TB, h http.Handler, key string, spec server.TenantSpec) {
	tb.Helper()
	body, _ := json.Marshal(server.CreateTenantRequest{Key: key, Spec: spec})
	if w := call(h, http.MethodPost, "/v2/keys", body, "application/json", ""); w.Code != http.StatusOK {
		tb.Fatalf("create %q: HTTP %d %s", key, w.Code, w.Body.Bytes())
	}
}

// keyStats reads key's /v1/stats entry from h.
func keyStats(tb testing.TB, h http.Handler, key string) server.KeyStats {
	tb.Helper()
	w := call(h, http.MethodGet, "/v1/stats", nil, "", "")
	var st server.StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		tb.Fatalf("stats: %v (%s)", err, w.Body.Bytes())
	}
	for _, ks := range st.Tenants {
		if ks.Key == key {
			return ks
		}
	}
	tb.Fatalf("stats lists no %q", key)
	return server.KeyStats{}
}

// estimateOf answers a JSON /v2/query estimate for key on h.
func estimateOf(tb testing.TB, h http.Handler, key string) float64 {
	tb.Helper()
	body, _ := json.Marshal(server.QueryRequest{Key: key, Queries: []server.Query{{Kind: server.QueryEstimate}}})
	w := call(h, http.MethodPost, "/v2/query", body, "application/json", "")
	var resp server.QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Answers) != 1 {
		tb.Fatalf("query %q: HTTP %d %s", key, w.Code, w.Body.Bytes())
	}
	return resp.Answers[0].Value
}

// TestExportsEndOnABatch: a shipment and a /v1/snapshot are each the state
// after one acknowledged batch, and a shipment's Mass is that state's. Eight
// writers send batches of 25 fresh items to a kmv tenant whose shards stay
// in KMV's exact regime, so the count a state answers is its number of
// items, while exports are taken in a loop: every count must be a multiple
// of 25, and every shipment's Mass must equal its count.
func TestExportsEndOnABatch(t *testing.T) {
	const writers, batches, size = 8, 300, 25
	cfg := server.Config{Shards: 4, Seed: 3, MaxKeys: 4}
	spec := server.TenantSpec{Sketch: "kmv", Eps: 0.03}
	src := server.New(cfg)
	defer src.Drain()
	h := src.Handler()
	declare(t, h, "k", spec)

	var wg sync.WaitGroup
	var running atomic.Int32
	running.Store(writers)
	for p := 0; p < writers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer running.Add(-1)
			us := make([]wire.Update, size)
			for i := 0; i < batches; i++ {
				for j := range us {
					us[j] = wire.Update{Item: uint64(p)<<40 | uint64(i)<<20 | uint64(j), Delta: 1}
				}
				if w := call(h, http.MethodPost, "/v2/update?key=k", wire.AppendUpdates(nil, us), wire.ContentType, ""); w.Code != http.StatusOK {
					t.Errorf("writer %d: HTTP %d %s", p, w.Code, w.Body.Bytes())
					return
				}
			}
		}(p)
	}

	// Exports are taken while the writers run and checked once they are done,
	// so the loop holds no lock the writers want for longer than an export.
	var ships []*wire.Ship
	var snaps [][]byte
	for running.Load() > 0 {
		sh, err := src.ShipTenant("k")
		if err != nil {
			t.Fatal(err)
		}
		w := call(h, http.MethodGet, "/v1/snapshot?key=k", nil, "", "")
		if w.Code != http.StatusOK {
			t.Fatalf("snapshot: HTTP %d %s", w.Code, w.Body.Bytes())
		}
		ships, snaps = append(ships, sh), append(snaps, w.Body.Bytes())
	}
	wg.Wait()

	var torn, wrongMass int
	check := func(what string, dst *server.Server, mass int64, withMass bool) {
		defer dst.Drain()
		count := estimateOf(t, dst.Handler(), "k")
		if count != float64(int64(count)) || int64(count)%size != 0 {
			torn++
			t.Errorf("%s answers %v items: not a whole number of %d-item batches", what, count, size)
		}
		if withMass && float64(mass) != count {
			wrongMass++
			t.Errorf("%s carries mass %d, its state counts %v", what, mass, count)
		}
	}
	for i, sh := range ships {
		dst := server.New(cfg)
		if err := dst.ApplyShipment("k", sh.Spec, sh.State, sh.Mass, sh.Deleted); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("shipment %d", i), dst, sh.Mass, true)
	}
	for i, snap := range snaps {
		dst := server.New(cfg)
		declare(t, dst.Handler(), "k", spec)
		if w := call(dst.Handler(), http.MethodPost, "/v1/merge?key=k", snap, "application/octet-stream", ""); w.Code != http.StatusOK {
			t.Fatalf("merge: HTTP %d %s", w.Code, w.Body.Bytes())
		}
		check(fmt.Sprintf("snapshot %d", i), dst, 0, false)
	}
	t.Logf("%d shipments and %d snapshots: %d off a batch boundary, %d shipments with another state's mass", len(ships), len(snaps), torn, wrongMass)
	if len(ships) == 0 {
		t.Fatal("no export overlapped the writers")
	}
}

// TestMassAndDeletedMass: a tenant's ledger — mass is the net Σdelta of its
// acknowledged batches and deleted mass the magnitude of their negative
// side, both exact the moment a batch is acknowledged, with no read to
// flush the engine first; an insertion-only stream deletes nothing.
func TestMassAndDeletedMass(t *testing.T) {
	srv := server.New(server.Config{Shards: 4, Seed: 5, MaxKeys: 4})
	defer srv.Drain()
	h := srv.Handler()
	declare(t, h, "turnstile", server.TenantSpec{Sketch: "f2", Model: "turnstile"})
	declare(t, h, "insertion", server.TenantSpec{Sketch: "kmv"})

	var net, del, ins int64
	for b := 0; b < 50; b++ {
		us := make([]wire.Update, 100)
		for j := range us {
			i := b*len(us) + j
			delta := int64(1 + i%3)
			if i%4 == 3 {
				delta = -delta
			}
			us[j] = wire.Update{Item: uint64(i % 97), Delta: delta}
			net += delta
			del += max(-delta, 0)
		}
		if w := call(h, http.MethodPost, "/v2/update?key=turnstile", wire.AppendUpdates(nil, us), wire.ContentType, ""); w.Code != http.StatusOK {
			t.Fatalf("turnstile batch %d: HTTP %d %s", b, w.Code, w.Body.Bytes())
		}
		for j := range us {
			us[j] = wire.Update{Item: uint64(b*len(us) + j), Delta: 1}
		}
		if w := call(h, http.MethodPost, "/v2/update?key=insertion", wire.AppendUpdates(nil, us), wire.ContentType, ""); w.Code != http.StatusOK {
			t.Fatalf("insertion batch %d: HTTP %d %s", b, w.Code, w.Body.Bytes())
		}
		ins += int64(len(us))
		if ks := keyStats(t, h, "turnstile"); ks.Mass != net || ks.DeletedMass != del {
			t.Fatalf("after batch %d the turnstile tenant reads mass %d, deleted %d; want %d and %d", b, ks.Mass, ks.DeletedMass, net, del)
		}
		if ks := keyStats(t, h, "insertion"); ks.Mass != ins || ks.DeletedMass != 0 {
			t.Fatalf("after batch %d the insertion tenant reads mass %d, deleted %d; want %d and 0", b, ks.Mass, ks.DeletedMass, ins)
		}
	}
}

// TestDeleteEchoesStats: DELETE /v1/keys answers with the tenant's own
// KeyStats, the entry /v1/stats listed for it last.
func TestDeleteEchoesStats(t *testing.T) {
	srv := server.New(server.Config{Shards: 2, Seed: 9, MaxKeys: 4})
	defer srv.Drain()
	h := srv.Handler()
	declare(t, h, "k", server.TenantSpec{Sketch: "f2", Policy: "switching", Model: "turnstile", FlipBudget: 8})
	us := []wire.Update{{Item: 1, Delta: 5}, {Item: 2, Delta: -2}, {Item: 3, Delta: 4}, {Item: 1, Delta: -1}}
	if w := call(h, http.MethodPost, "/v2/update?key=k", wire.AppendUpdates(nil, us), wire.ContentType, ""); w.Code != http.StatusOK {
		t.Fatalf("update: HTTP %d %s", w.Code, w.Body.Bytes())
	}
	last := keyStats(t, h, "k")
	w := call(h, http.MethodDelete, "/v1/keys?key=k", nil, "", "")
	var echo server.KeyStats
	if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &echo) != nil {
		t.Fatalf("delete: HTTP %d %s", w.Code, w.Body.Bytes())
	}
	if echo.Mass != 6 || echo.DeletedMass != 3 {
		t.Errorf("echo reads mass %d, deleted %d; want 6 and 3", echo.Mass, echo.DeletedMass)
	}
	if echo.Mass != last.Mass || echo.DeletedMass != last.DeletedMass || echo.Model != last.Model ||
		echo.Spec == nil || last.Spec == nil || *echo.Spec != *last.Spec || echo.Robustness == nil {
		t.Errorf("delete echoed %+v (spec %+v), the last stats entry was %+v (spec %+v)", echo, echo.Spec, last, last.Spec)
	}
}

// TestExhaustedTenantReadsNoRemaining: a tenant whose guarantee has lapsed
// has no flip budget left. Budget and switches are sums over shards with
// budgets of their own, so the first shard to overrun its budget exhausts
// the tenant while the sums still differ; /v1/stats and both codecs of
// /v2/query must read remaining 0 all the same.
func TestExhaustedTenantReadsNoRemaining(t *testing.T) {
	srv := server.New(server.Config{Shards: 4, Seed: 2, MaxKeys: 4})
	defer srv.Drain()
	h := srv.Handler()
	declare(t, h, "k", server.TenantSpec{Sketch: "kmv", Policy: "switching", FlipBudget: 40})
	jsonQuery, _ := json.Marshal(server.QueryRequest{Key: "k", Queries: []server.Query{{Kind: server.QueryEstimate}}})
	frameQuery := wire.AppendQuery(nil, &wire.QueryRequest{Key: "k", Queries: []wire.Query{{Kind: wire.KindEstimate}}})
	us := make([]wire.Update, 5)
	for b := 0; b < 20000; b++ {
		for j := range us {
			us[j] = wire.Update{Item: uint64(b*len(us) + j), Delta: 1}
		}
		if w := call(h, http.MethodPost, "/v2/update?key=k", wire.AppendUpdates(nil, us), wire.ContentType, ""); w.Code != http.StatusOK {
			t.Fatalf("batch %d: HTTP %d %s", b, w.Code, w.Body.Bytes())
		}
		w := call(h, http.MethodPost, "/v2/query", jsonQuery, "application/json", "")
		var resp server.QueryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Robustness == nil {
			t.Fatalf("query: HTTP %d %s", w.Code, w.Body.Bytes())
		}
		if !resp.Robustness.Exhausted {
			continue
		}
		rb := *resp.Robustness
		t.Logf("first exhausted after batch %d: switches %d of budget %d", b, rb.Switches, rb.Budget)
		if rb.Remaining != 0 {
			t.Errorf("JSON /v2/query reads remaining %d on an exhausted tenant (switches %d, budget %d)", rb.Remaining, rb.Switches, rb.Budget)
		}
		w = call(h, http.MethodPost, "/v2/query", frameQuery, wire.ContentType, wire.ContentType)
		fr, err := wire.DecodeAnswer(w.Body.Bytes())
		if err != nil || fr.Robustness == nil {
			t.Fatalf("frame query: HTTP %d %v", w.Code, err)
		}
		if !fr.Robustness.Exhausted || fr.Robustness.Remaining != 0 {
			t.Errorf("frame /v2/query reads exhausted %v, remaining %d", fr.Robustness.Exhausted, fr.Robustness.Remaining)
		}
		ks := keyStats(t, h, "k")
		if ks.Robustness == nil || !ks.Robustness.Exhausted || ks.Robustness.Remaining != 0 {
			t.Errorf("/v1/stats reads robustness %+v, want exhausted with remaining 0", ks.Robustness)
		}
		return
	}
	t.Fatal("the tenant never exhausted its flip budget")
}

// TestPathsTenantSpendsNoFlipOnZero: a paths tenant publishes through the
// same rounding step as a switching one, so a batch that leaves the
// estimate at 0 moves no output and spends no flip budget; the +1 after it
// spends exactly one.
func TestPathsTenantSpendsNoFlipOnZero(t *testing.T) {
	const budget = 16
	srv := server.New(server.Config{Shards: 2, Seed: 3, MaxKeys: 2})
	defer srv.Drain()
	h := srv.Handler()
	declare(t, h, "k", server.TenantSpec{Sketch: "f2", Policy: "paths", Shards: 1, FlipBudget: budget})
	query, _ := json.Marshal(server.QueryRequest{Key: "k", Queries: []server.Query{{Kind: server.QueryEstimate}}})
	for i, us := range [][]wire.Update{
		{{Item: 1, Delta: 0}, {Item: 2, Delta: 0}, {Item: 3, Delta: 0}},
		{{Item: 7, Delta: 1}},
	} {
		if w := call(h, http.MethodPost, "/v2/update?key=k", wire.AppendUpdates(nil, us), wire.ContentType, ""); w.Code != http.StatusOK {
			t.Fatalf("batch %d: HTTP %d %s", i, w.Code, w.Body.Bytes())
		}
	}
	w := call(h, http.MethodPost, "/v2/query", query, "application/json", "")
	var resp server.QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Robustness == nil {
		t.Fatalf("query: HTTP %d %s", w.Code, w.Body.Bytes())
	}
	if rb := *resp.Robustness; rb.Switches != 1 || rb.Remaining != budget-1 {
		t.Errorf("robustness %+v after a zero batch and a +1, want switches 1, remaining %d", rb, budget-1)
	}
}

// TestAbsoluteMassIsBounded: a batch that would take a tenant's absolute
// mass Σ|delta| past 2⁶² is a 400 naming the bound, with nothing journaled
// or applied, in both codecs over loopback HTTP. A one-shard f2 turnstile
// tenant takes {7: 2⁶²}, then refuses the same batch again (unbounded, the
// third copy wrapped its mass to −2⁶²); another fills the bound exactly with
// mixed signs, then refuses one more unit; a third refuses MinInt64 outright.
// A crash copy of the data directory recovers every ledger unchanged.
func TestAbsoluteMassIsBounded(t *testing.T) {
	const bound = int64(1) << 62
	cfg := server.Config{Shards: 1, Seed: 9, MaxKeys: 8, DataDir: t.TempDir(), Fsync: "none"}
	srv, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Drain()
	ctx := context.Background()
	type ledger struct{ mass, deleted int64 }
	want := map[string]ledger{}
	for _, codec := range []client.Codec{client.CodecBinary, client.CodecJSON} {
		c := client.New(hs.URL, hs.Client(), client.WithCodec(codec))
		key := func(name string) string { return fmt.Sprintf("%s-%d", name, codec) }
		send := func(name string, refused bool, us ...client.Update) {
			t.Helper()
			err := c.Update(ctx, key(name), us)
			switch {
			case !refused && err != nil:
				t.Fatalf("codec %d: %s %v: %v", codec, name, us, err)
			case refused && (client.StatusCode(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "absolute mass")):
				t.Fatalf("codec %d: %s %v answered %v, want a 400 naming the absolute mass bound", codec, name, us, err)
			}
		}
		for _, name := range []string{"flood", "edge", "min"} {
			if _, err := c.CreateTenant(ctx, key(name), client.TenantSpec{Sketch: "f2", Model: "turnstile"}); err != nil {
				t.Fatal(err)
			}
		}
		send("flood", false, client.Update{Item: 7, Delta: bound})
		est, err := c.Estimate(ctx, key("flood"))
		if err != nil {
			t.Fatal(err)
		}
		send("flood", true, client.Update{Item: 7, Delta: bound})
		send("flood", true, client.Update{Item: 8, Delta: -1})
		if got, err := c.Estimate(ctx, key("flood")); err != nil || got != est {
			t.Fatalf("codec %d: a refused batch moved the estimate %v → %v (%v)", codec, est, got, err)
		}
		want[key("flood")] = ledger{bound, 0}

		send("edge", false, client.Update{Item: 1, Delta: bound / 2}, client.Update{Item: 2, Delta: -bound / 4})
		send("edge", false, client.Update{Item: 3, Delta: bound / 4})
		send("edge", true, client.Update{Item: 4, Delta: 1})
		want[key("edge")] = ledger{bound / 2, bound / 4}

		send("min", true, client.Update{Item: 5, Delta: 1}, client.Update{Item: 5, Delta: math.MinInt64})
		want[key("min")] = ledger{}
	}
	check := func(what string, c *client.Client) {
		t.Helper()
		for k, w := range want {
			ks, err := c.KeyStats(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			if ks.Mass != w.mass || ks.DeletedMass != w.deleted {
				t.Errorf("%s: %s reads mass %d, deleted %d; want %d and %d", what, k, ks.Mass, ks.DeletedMass, w.mass, w.deleted)
			}
		}
	}
	check("live", client.New(hs.URL, hs.Client()))
	cfg.DataDir = waltest.Crash(t, cfg.DataDir)
	rec, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Drain()
	rhs := httptest.NewServer(rec.Handler())
	defer rhs.Close()
	check("recovered", client.New(rhs.URL, rhs.Client()))
}
