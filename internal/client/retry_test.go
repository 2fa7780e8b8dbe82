package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// codecs parameterizes the retry tests: a refused batch applied nothing
// under either codec (error replies are always JSON), so UpdateRetry must
// behave identically whichever codec carried the batch.
var codecs = []struct {
	name  string
	codec client.Codec
}{
	{"binary", client.CodecBinary},
	{"json", client.CodecJSON},
}

// drainingUpdateServer simulates a draining sketchd: the first failures
// requests answer 503 with nothing applied, after which batches are
// accepted whole. Every applied update is recorded, so the test can detect
// loss or double counting. It serves both ingest codecs: JSON on
// /v1/update and binary frames on /v2/update, like the real server.
type drainingUpdateServer struct {
	failures int // remaining requests to fail
	applied  []client.Update
}

func (d *drainingUpdateServer) handler(w http.ResponseWriter, r *http.Request) {
	var updates []client.Update
	switch r.URL.Path {
	case "/v1/update":
		var req server.UpdateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		updates = req.Updates
	case "/v2/update":
		if r.Header.Get("Content-Type") != wire.ContentType {
			http.Error(w, "unexpected content type", http.StatusUnsupportedMediaType)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		us, err := wire.DecodeUpdates(body, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, u := range us {
			updates = append(updates, client.Update{Item: u.Item, Delta: u.Delta})
		}
	default:
		http.NotFound(w, r)
		return
	}
	if d.failures > 0 {
		d.failures--
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(server.ErrorResponse{Error: "server is draining"})
		return
	}
	d.applied = append(d.applied, updates...)
	_ = json.NewEncoder(w).Encode(server.UpdateResponse{Accepted: len(updates)})
}

// flakyServer fronts drainingUpdateServer with injected transport
// failures: the first kills requests have their connection severed before
// any response bytes — what a client sees when sketchd is SIGKILLed or
// restarting mid-request.
type flakyServer struct {
	kills int
	inner *drainingUpdateServer
}

func (f *flakyServer) handler(w http.ResponseWriter, r *http.Request) {
	if f.kills > 0 {
		f.kills--
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	f.inner.handler(w, r)
}

// TestUpdateRetryConvergesAcrossDrains: UpdateRetry resends the whole
// batch through repeated drains until it is acknowledged — every update
// applied exactly once, none lost, none double counted.
func TestUpdateRetryConvergesAcrossDrains(t *testing.T) {
	for _, tc := range codecs {
		t.Run(tc.name, func(t *testing.T) {
			d := &drainingUpdateServer{failures: 3}
			hs := httptest.NewServer(http.HandlerFunc(d.handler))
			defer hs.Close()
			c := client.New(hs.URL, hs.Client(), client.WithCodec(tc.codec))

			var batch []client.Update
			for i := uint64(0); i < 100; i++ {
				batch = append(batch, client.Update{Item: i, Delta: 1})
			}
			if err := c.UpdateRetry(context.Background(), "k", batch); err != nil {
				t.Fatalf("UpdateRetry: %v", err)
			}
			if len(d.applied) != len(batch) {
				t.Fatalf("server applied %d updates, want %d", len(d.applied), len(batch))
			}
			for i, u := range d.applied {
				if u.Item != uint64(i) {
					t.Fatalf("update %d applied as item %d: an update was re-applied or dropped", i, u.Item)
				}
			}
		})
	}
}

// TestUpdateRetrySurvivesTransportErrors: severed connections (a restart
// in progress) are retried with the full outstanding batch until the
// server answers again.
func TestUpdateRetrySurvivesTransportErrors(t *testing.T) {
	f := &flakyServer{kills: 3, inner: &drainingUpdateServer{}}
	hs := httptest.NewServer(http.HandlerFunc(f.handler))
	defer hs.Close()
	c := client.New(hs.URL, hs.Client())

	batch := []client.Update{{Item: 1, Delta: 1}, {Item: 2, Delta: 1}, {Item: 3, Delta: 1}}
	if err := c.UpdateRetry(context.Background(), "k", batch); err != nil {
		t.Fatalf("UpdateRetry: %v", err)
	}
	if f.kills != 0 {
		t.Fatalf("%d injected kills unconsumed", f.kills)
	}
	if len(f.inner.applied) != len(batch) {
		t.Fatalf("server applied %d updates, want %d", len(f.inner.applied), len(batch))
	}
}

// TestUpdateRetryFatalErrorIsFinal: a validation rejection must surface
// immediately — retrying a 400 forever would spin on a batch the server
// will never take.
func TestUpdateRetryFatalErrorIsFinal(t *testing.T) {
	var requests int
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(server.ErrorResponse{Error: "negative delta on insertion-only tenant"})
	}))
	defer hs.Close()
	c := client.New(hs.URL, hs.Client())

	err := c.UpdateRetry(context.Background(), "k", []client.Update{{Item: 1, Delta: -1}})
	if client.StatusCode(err) != 400 {
		t.Fatalf("err = %v, want the server's 400", err)
	}
	if requests != 1 {
		t.Fatalf("client sent %d requests for a fatal error, want 1", requests)
	}
}

// TestUpdateRetryHonorsContext: with the server persistently unreachable,
// a cancelled context ends the loop with its cause attached.
func TestUpdateRetryHonorsContext(t *testing.T) {
	f := &flakyServer{kills: 1 << 30, inner: &drainingUpdateServer{}}
	hs := httptest.NewServer(http.HandlerFunc(f.handler))
	defer hs.Close()
	c := client.New(hs.URL, hs.Client())

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	err := c.UpdateRetry(ctx, "k", []client.Update{{Item: 1, Delta: 1}})
	if err == nil {
		t.Fatal("UpdateRetry returned nil against a dead server")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a context.DeadlineExceeded wrap", err)
	}
}

// TestUpdateAgainstRealDrain: a genuinely drained sketchd refuses a batch
// with a retryable 503 every time it is sent, and none of it lands.
func TestUpdateAgainstRealDrain(t *testing.T) {
	srv := server.New(server.Config{Shards: 1, Seed: 1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "k", client.TenantSpec{Sketch: "kmv"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(ctx, "k", 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	batch := []client.Update{{Item: 9, Delta: 1}, {Item: 10, Delta: 1}}
	for attempt := 1; attempt <= 2; attempt++ {
		if err := c.Update(ctx, "k", batch); client.StatusCode(err) != 503 {
			t.Fatalf("update %d after drain: err = %v, want 503", attempt, err)
		}
	}
	ks, err := c.KeyStats(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if ks.Mass != 3 {
		t.Fatalf("mass %d after two refused batches, want the 3 updates acknowledged before the drain", ks.Mass)
	}
}
