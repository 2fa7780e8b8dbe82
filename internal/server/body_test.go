package server_test

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/server"
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
