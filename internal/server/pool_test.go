package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/waltest"
	"repro/internal/wire"
)

// Pool-safety regression tests for the ingest hot path: every request —
// success and every early-error exit — must return its pooled buffers,
// and nothing downstream may retain a pooled slice past the handler
// return (the next request would scribble over it).

func poolReq(h http.Handler, method, target string, body []byte, ct string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func frameBody(us []wire.Update) []byte { return wire.AppendUpdates(nil, us) }

// TestIngestPoolsBalanced drives every ingest path — both codecs,
// success and each error exit — and asserts the pooled-buffer checkout
// counters return to their baseline: no path leaks a Get without its
// Put. A leak here silently kills buffer recycling (the pools drain and
// every request allocates fresh), so it is pinned by count, not by
// benchmark noise.
func TestIngestPoolsBalanced(t *testing.T) {
	baseBody := bodyPool.live.Load()
	baseUpdates := updatesPool.live.Load()

	srv := New(Config{Shards: 2, Seed: 1, MaxKeys: 4})
	defer srv.Drain()
	h := srv.Handler()
	declare(t, srv, "k", "f2")
	ok := frameBody([]wire.Update{{Item: 1, Delta: 1}, {Item: 2, Delta: 3}})
	neg := frameBody([]wire.Update{{Item: 1, Delta: -1}})

	steps := []struct {
		name   string
		target string
		body   []byte
		ct     string
		status int
	}{
		{"json ok", "/v1/update?key=k", []byte(`{"updates":[{"item":1,"delta":1}]}`), "", http.StatusOK},
		{"json bad body", "/v1/update?key=k", []byte(`{"updates":[`), "", http.StatusBadRequest},
		{"json negative delta", "/v1/update?key=k", []byte(`{"updates":[{"item":1,"delta":-1}]}`), "", http.StatusBadRequest},
		{"json unknown key", "/v1/update?key=k2", []byte(`{"updates":[{"item":1,"delta":1}]}`), "", http.StatusNotFound},
		{"json v2 unknown key", "/v2/update?key=k2", []byte(`{"updates":[{"item":1,"delta":1}]}`), "application/json", http.StatusNotFound},
		{"frame ok", "/v2/update?key=k", ok, wire.ContentType, http.StatusOK},
		{"frame bad frame", "/v2/update?key=k", []byte{0xff, 0x01, 0x02}, wire.ContentType, http.StatusBadRequest},
		{"frame negative delta", "/v2/update?key=k", neg, wire.ContentType, http.StatusBadRequest},
		{"frame unknown key", "/v2/update?key=k2", ok, wire.ContentType, http.StatusNotFound},
		{"frame missing key", "/v2/update", ok, wire.ContentType, http.StatusNotFound},
		{"unsupported media", "/v2/update?key=k", ok, "text/plain", http.StatusUnsupportedMediaType},
	}
	for _, st := range steps {
		if w := poolReq(h, http.MethodPost, st.target, st.body, st.ct); w.Code != st.status {
			t.Fatalf("%s: status %d, want %d (body %s)", st.name, w.Code, st.status, w.Body.Bytes())
		}
	}

	// The drain exits (503, nothing applied) release buffers too.
	srv.Drain()
	for _, st := range []struct {
		name   string
		target string
		body   []byte
		ct     string
	}{
		{"json drained", "/v1/update?key=k", []byte(`{"updates":[{"item":1,"delta":1}]}`), ""},
		{"frame drained", "/v2/update?key=k", ok, wire.ContentType},
	} {
		if w := poolReq(h, http.MethodPost, st.target, st.body, st.ct); w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", st.name, w.Code)
		}
	}

	if got := bodyPool.live.Load(); got != baseBody {
		t.Errorf("bodyPool live = %d after all requests, want %d: a request path skipped its Put", got, baseBody)
	}
	if got := updatesPool.live.Load(); got != baseUpdates {
		t.Errorf("updatesPool live = %d after all requests, want %d: a request path skipped its Put", got, baseUpdates)
	}
}

// TestUpdateUnknownKeyIs404: an update names a tenant, it does not make
// one. A key nobody declared on this node — a typo, or a replica the owner
// never shipped to — answers 404 under every codec and leaves no tenant
// behind to be sized by a default and charged to the quota.
func TestUpdateUnknownKeyIs404(t *testing.T) {
	baseBody, baseUpdates := bodyPool.live.Load(), updatesPool.live.Load()
	srv := New(Config{Shards: 2, Seed: 1})
	defer srv.Drain()
	h := srv.Handler()
	one := []byte(`{"updates":[{"item":1,"delta":1}]}`)
	for _, st := range []struct {
		name, target string
		body         []byte
		ct           string
	}{
		{"json v1", "/v1/update?key=x", one, ""},
		{"json v2", "/v2/update?key=x", one, "application/json"},
		{"frame v2", "/v2/update?key=x", frameBody([]wire.Update{{Item: 1, Delta: 1}}), wire.ContentType},
	} {
		w := poolReq(h, http.MethodPost, st.target, st.body, st.ct)
		if w.Code != http.StatusNotFound || !bytes.Contains(w.Body.Bytes(), []byte(`unknown key \"x\"`)) {
			t.Errorf("%s: status %d (%s), want 404 unknown key", st.name, w.Code, w.Body.Bytes())
		}
	}
	var stats StatsResponse
	w := poolReq(h, http.MethodGet, "/v1/stats", nil, "")
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil || stats.Keys != 0 || len(stats.Tenants) != 0 {
		t.Errorf("stats after the 404s: %s (%v), want no tenant", w.Body.Bytes(), err)
	}
	if b, u := bodyPool.live.Load(), updatesPool.live.Load(); b != baseBody || u != baseUpdates {
		t.Errorf("pools after the 404s: body %d updates %d live, want %d and %d", b, u, baseBody, baseUpdates)
	}
}

// TestDurableIngestDoesNotRetainPooledBuffers pins the WAL layer's
// contract with the pools: logUpdates encodes the batch into the log's
// own buffer synchronously, so by the time a handler returns its pooled
// update slice, the journal no longer references it. If the log retained
// the slice (e.g. an async append holding the frame), the follow-up
// requests recycling the same buffer would corrupt earlier records and
// replay would diverge. Sequential single-connection requests guarantee
// each request reuses the previous one's pooled buffers.
func TestDurableIngestDoesNotRetainPooledBuffers(t *testing.T) {
	cfg := Config{Shards: 2, Seed: 9, MaxKeys: 4, DataDir: t.TempDir(), Fsync: "none"}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	declare(t, srv, "k", "f2")
	baseBody := bodyPool.live.Load()
	baseUpdates := updatesPool.live.Load()

	// Distinct contents per batch: retention of any one buffer shows up
	// as a replay mismatch because its bytes get overwritten next round.
	for round := 0; round < 16; round++ {
		us := make([]wire.Update, 64)
		for i := range us {
			us[i] = wire.Update{Item: uint64(round*1000 + i), Delta: int64(round + 1)}
		}
		if w := poolReq(h, http.MethodPost, "/v2/update?key=k", frameBody(us), wire.ContentType); w.Code != http.StatusOK {
			t.Fatalf("round %d: status %d (%s)", round, w.Code, w.Body.Bytes())
		}
	}
	want := srv.lookup("k").eng.Estimate()
	if got := bodyPool.live.Load(); got != baseBody {
		t.Errorf("bodyPool live = %d, want %d on the durable path", got, baseBody)
	}
	if got := updatesPool.live.Load(); got != baseUpdates {
		t.Errorf("updatesPool live = %d, want %d on the durable path", got, baseUpdates)
	}
	// Crash (no Shutdown): replay must reproduce the stream from the
	// journaled frames alone.
	cfg.DataDir = waltest.Crash(t, cfg.DataDir)
	srv2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Drain()
	if got := srv2.lookup("k").eng.Estimate(); got != want {
		t.Errorf("replayed estimate %v, want %v: a journaled frame was corrupted by buffer reuse", got, want)
	}
	srv.Drain()
}
