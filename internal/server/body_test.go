package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestUpdateBodyIsOneObject: a JSON update body is one object. A second
// object or any other non-whitespace after the first is a 400 on
// /v1/update and on /v2/update's JSON arm, with nothing applied; trailing
// whitespace is not.
func TestUpdateBodyIsOneObject(t *testing.T) {
	srv := server.New(server.Config{Shards: 2, Seed: 3, MaxKeys: 4})
	defer srv.Drain()
	h := srv.Handler()
	declare(t, h, "k", server.TenantSpec{Sketch: "kmv"})
	const one = `{"updates":[{"item":1,"delta":1}]}`
	mass := int64(0)
	for _, route := range []string{"/v1/update?key=k", "/v2/update?key=k"} {
		for _, tail := range []string{"", " \n\t"} {
			if w := call(h, http.MethodPost, route, []byte(one+tail), "application/json", ""); w.Code != http.StatusOK {
				t.Fatalf("%s %q: HTTP %d %s, want 200", route, one+tail, w.Code, w.Body.Bytes())
			}
			mass++
		}
		for _, tail := range []string{` {"updates":[{"item":2,"delta":5}]}`, "xyz", "}", " 7", "[]"} {
			w := call(h, http.MethodPost, route, []byte(one+tail), "application/json", "")
			if w.Code != http.StatusBadRequest {
				t.Errorf("%s %q: HTTP %d %s, want 400", route, one+tail, w.Code, w.Body.Bytes())
			}
			if got := keyStats(t, h, "k").Mass; got != mass {
				t.Fatalf("%s %q moved the mass from %d to %d", route, one+tail, mass, got)
			}
		}
	}
}

// TestCreateBodyNamesUnknownFields: POST /v2/keys refuses a spec field it
// does not know with a 400 naming it, creating nothing. A misspelt policy
// would otherwise declare a static tenant with no robustness guarantee.
func TestCreateBodyNamesUnknownFields(t *testing.T) {
	srv := server.New(server.Config{Shards: 2, Seed: 3, MaxKeys: 4})
	defer srv.Drain()
	h := srv.Handler()
	for field, body := range map[string]string{
		"polcy":      `{"key":"a","spec":{"sketch":"f2","polcy":"switching"}}`,
		"flipbudget": `{"key":"a","spec":{"sketch":"f2","policy":"switching","flipbudget":8}}`,
		"ky":         `{"ky":"b","key":"a","spec":{"sketch":"f2"}}`,
	} {
		w := call(h, http.MethodPost, "/v2/keys", []byte(body), "application/json", "")
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `\"`+field+`\"`) {
			t.Errorf("create %s: HTTP %d %s, want 400 naming %q", body, w.Code, w.Body.Bytes(), field)
		}
	}
	if n := len(srv.Keys()); n != 0 {
		t.Fatalf("%d tenants after refused creates, want 0", n)
	}
	declare(t, h, "a", server.TenantSpec{Sketch: "f2", Policy: "switching", FlipBudget: 8})
	if r := keyStats(t, h, "a").Robustness; r == nil || r.Policy != "switching" {
		t.Fatalf("the spelt-out spec declared robustness %+v, want switching", r)
	}
}

// TestStoredSpecKeepsUnknownFields: a spec the server stored is read
// leniently. A shipment whose spec carries a field since removed ("batch")
// installs its tenant, as a WAL create record with one does
// (TestDurableRecoversStoredCreateRecord).
func TestStoredSpecKeepsUnknownFields(t *testing.T) {
	srv := server.New(server.Config{Shards: 2, Seed: 3, MaxKeys: 4})
	defer srv.Drain()
	spec := `{"sketch":"kmv","policy":"none","eps":0.2,"delta":0.05,"n":4294967296,"shards":2,"batch":256,"model":"insertion","seed":7}`
	if err := srv.ApplyShipment("a", []byte(spec), nil, 0, 0); err != nil {
		t.Fatalf("shipment with a stored spec: %v", err)
	}
	if ks := keyStats(t, srv.Handler(), "a"); ks.Sketch != "kmv" || ks.Shards != 2 || ks.Spec.Eps != 0.2 {
		t.Fatalf("shipped tenant = %+v, want kmv on 2 shards at ε = 0.2", ks)
	}
}

// TestQueryBodyNamesUnknownFields: a JSON query body is one object of the
// query shape. A field the shape does not have, inside a query or beside
// the batch, is a 400 naming it, and so is data after the object, on
// POST /v2/query and on a one-node cluster's POST /cluster/query?merge=all;
// nothing is answered. A stray "items" was answered as a point query for
// item 0.
func TestQueryBodyNamesUnknownFields(t *testing.T) {
	srv := server.New(server.Config{Shards: 2, Seed: 3, MaxKeys: 4})
	defer srv.Drain()
	node, err := cluster.New(srv, cluster.Config{Self: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	h := node.Handler()
	declare(t, h, "k", server.TenantSpec{Sketch: "countsketch"})
	for _, c := range []struct{ body, names string }{
		{`{"key":"k","queries":[{"kind":"point","items":[1,2,3,50]}]}`, `\"items\"`},
		{`{"key":"k","queries":[{"kind":"estimate"}],"limit":3}`, `\"limit\"`},
		{`{"key":"k","queries":[{"kind":"estimate"}]} {"key":"k","queries":[{"kind":"estimate"}]}`, "top-level value"},
	} {
		for _, route := range []string{"/v2/query", "/cluster/query?merge=all"} {
			w := call(h, http.MethodPost, route, []byte(c.body), "application/json", "")
			if got := w.Body.String(); w.Code != http.StatusBadRequest || !strings.Contains(got, c.names) || strings.Contains(got, `"answers"`) {
				t.Errorf("%s %s: HTTP %d %s, want a 400 naming %s", route, c.body, w.Code, got, c.names)
			}
		}
	}
}

// TestQueryRefusalsNameTheFirstDefect: a bad query batch is refused with
// the same message whatever the route it takes through the server, and a
// batch with two defects names the first in the order key, empty batch,
// batch limit, then each query in turn. A frame that cannot carry a
// defect (an unknown kind byte, a negative k) is refused by its decoder.
func TestQueryRefusalsNameTheFirstDefect(t *testing.T) {
	srv := server.New(server.Config{Shards: 2, Seed: 3, MaxKeys: 4})
	defer srv.Drain()
	h := srv.Handler()
	est := server.Query{Kind: server.QueryEstimate}
	unk := server.Query{Kind: "drop tables"}
	neg := server.Query{Kind: server.QueryTopK, K: -1}
	big := server.Query{Kind: server.QueryTopK, K: 5000}
	batch := func(at int, q server.Query) []server.Query {
		qs := make([]server.Query, 1025)
		for i := range qs {
			qs[i] = est
		}
		qs[at] = q
		return qs
	}
	const (
		noKey    = "bad query body: missing key"
		empty    = "bad query body: empty query batch"
		limit    = "bad query body: 1025 queries exceeds the batch limit 1024"
		frameUnk = "bad query frame: wire: corrupt frame payload: codec: unknown query kind 9"
		frameNeg = "bad query frame: wire: corrupt frame payload: codec: topk k 18446744073709551615 out of range"
	)
	unknown := func(i int) string {
		return fmt.Sprintf(`query %d: unknown kind "drop tables" (have: estimate, point, topk)`, i)
	}
	kRange := func(i, k int) string { return fmt.Sprintf("query %d: topk k must be in [1, 4096], got %d", i, k) }
	for _, c := range []struct {
		name        string
		key         string
		qs          []server.Query
		json, frame string
	}{
		{"missing key", "", []server.Query{est}, noKey, noKey},
		{"empty", "k", nil, empty, empty},
		{"1025", "k", batch(0, est), limit, limit},
		{"unknown kind", "k", []server.Query{est, unk}, unknown(1), frameUnk},
		{"k=-1", "k", []server.Query{est, neg}, kRange(1, -1), frameNeg},
		{"k=5000", "k", []server.Query{big}, kRange(0, 5000), kRange(0, 5000)},
		{"missing key, empty", "", nil, noKey, noKey},
		{"missing key, 1025", "", batch(0, est), noKey, noKey},
		{"missing key, unknown kind", "", []server.Query{unk}, noKey, frameUnk},
		{"missing key, k=-1", "", []server.Query{neg}, noKey, frameNeg},
		{"missing key, k=5000", "", []server.Query{big}, noKey, noKey},
		{"1025, unknown kind", "k", batch(1000, unk), limit, frameUnk},
		{"1025, k=-1", "k", batch(3, neg), limit, frameNeg},
		{"1025, k=5000", "k", batch(1024, big), limit, limit},
		{"unknown kind, k=-1", "k", []server.Query{unk, neg}, unknown(0), frameUnk},
		{"k=-1, unknown kind", "k", []server.Query{neg, unk}, kRange(0, -1), frameNeg},
		{"unknown kind, k=5000", "k", []server.Query{unk, big}, unknown(0), frameUnk},
		{"k=5000, unknown kind", "k", []server.Query{big, unk}, kRange(0, 5000), frameUnk},
		{"k=-1, k=5000", "k", []server.Query{neg, big}, kRange(0, -1), frameNeg},
		{"k=5000, k=-1", "k", []server.Query{big, neg}, kRange(0, 5000), frameNeg},
	} {
		body, _ := json.Marshal(server.QueryRequest{Key: c.key, Queries: c.qs})
		wq := wire.QueryRequest{Key: c.key}
		for _, q := range c.qs {
			kind := wire.KindOf(q.Kind)
			if kind == 0 {
				kind = 9
			}
			wq.Queries = append(wq.Queries, wire.Query{Kind: kind, Item: uint64(q.Item), K: q.K})
		}
		for _, codec := range []struct {
			ct, want string
			body     []byte
		}{{"application/json", c.json, body}, {wire.ContentType, c.frame, wire.AppendQuery(nil, &wq)}} {
			w := call(h, http.MethodPost, "/v2/query", codec.body, codec.ct, "")
			want, _ := json.Marshal(server.ErrorResponse{Error: codec.want})
			if w.Code != http.StatusBadRequest || w.Body.String() != string(want)+"\n" {
				t.Errorf("%s as %s: HTTP %d %s, want 400 %s", c.name, codec.ct, w.Code, w.Body.Bytes(), want)
			}
		}
	}
}
