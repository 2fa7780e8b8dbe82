package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// codecs parameterizes the retry-protocol tests: the Accepted contract is
// codec-independent (error replies are always JSON), so RetryTail must
// behave identically whichever codec carried the batch.
var codecs = []struct {
	name  string
	codec client.Codec
}{
	{"binary", client.CodecBinary},
	{"json", client.CodecJSON},
}

// drainingUpdateServer simulates the server-side partial-batch protocol:
// the first failAfter requests apply only a prefix of each batch and
// answer 503 with the applied count (exactly what a drain straddling the
// batch produces), after which batches are accepted whole. Every applied
// update is recorded, so the test can detect double counting — the bug
// RetryTail exists to prevent. It serves both ingest codecs: JSON on
// /v1/update and binary frames on /v2/update, like the real server.
type drainingUpdateServer struct {
	failures int // remaining requests to fail
	prefix   int // updates applied before each failure
	applied  []client.Update
	requests int
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
	d.requests++
	if d.failures > 0 {
		d.failures--
		n := d.prefix
		if n > len(updates) {
			n = len(updates)
		}
		d.applied = append(d.applied, updates[:n]...)
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(server.ErrorResponse{
			Error:    fmt.Sprintf("server is draining (accepted %d of %d updates)", n, len(updates)),
			Accepted: n,
		})
		return
	}
	d.applied = append(d.applied, updates...)
	_ = json.NewEncoder(w).Encode(server.UpdateResponse{Accepted: len(updates)})
}

// TestRetryTailResendsOnlyUnappliedSuffix: after a partial batch failure,
// RetryTail must resend exactly the unapplied tail — the applied prefix
// is in the drained state, and re-sending it would double count.
func TestRetryTailResendsOnlyUnappliedSuffix(t *testing.T) {
	for _, tc := range codecs {
		t.Run(tc.name, func(t *testing.T) {
			d := &drainingUpdateServer{failures: 1, prefix: 60}
			hs := httptest.NewServer(http.HandlerFunc(d.handler))
			defer hs.Close()
			c := client.New(hs.URL, hs.Client(), client.WithCodec(tc.codec))
			ctx := context.Background()

			var batch []client.Update
			for i := uint64(0); i < 100; i++ {
				batch = append(batch, client.Update{Item: i, Delta: 1})
			}
			err := c.Update(ctx, "k", batch)
			if client.StatusCode(err) != 503 {
				t.Fatalf("first update: err = %v, want HTTP 503", err)
			}
			if got := client.AcceptedCount(err); got != 60 {
				t.Fatalf("AcceptedCount = %d, want 60", got)
			}

			tail, err := c.RetryTail(ctx, "k", batch, err)
			if err != nil {
				t.Fatalf("RetryTail: %v", err)
			}
			if tail != nil {
				t.Fatalf("RetryTail reported success but returned a tail of %d updates", len(tail))
			}
			if d.requests != 2 {
				t.Fatalf("RetryTail issued %d requests, want exactly 1 resend", d.requests-1)
			}
			// Every update applied exactly once, in order: no loss, no
			// double counting.
			if len(d.applied) != len(batch) {
				t.Fatalf("server applied %d updates, want %d", len(d.applied), len(batch))
			}
			for i, u := range d.applied {
				if u.Item != uint64(i) {
					t.Fatalf("update %d applied as item %d: prefix re-sent or tail dropped", i, u.Item)
				}
			}
		})
	}
}

// TestRetryTailAcrossRepeatedFailures: the loop pattern from the docs —
// each retry that fails again reports its own applied prefix, and feeding
// the returned tail back in converges with every update applied once.
func TestRetryTailAcrossRepeatedFailures(t *testing.T) {
	for _, tc := range codecs {
		t.Run(tc.name, func(t *testing.T) {
			d := &drainingUpdateServer{failures: 3, prefix: 25}
			hs := httptest.NewServer(http.HandlerFunc(d.handler))
			defer hs.Close()
			c := client.New(hs.URL, hs.Client(), client.WithCodec(tc.codec))
			ctx := context.Background()

			var batch []client.Update
			for i := uint64(0); i < 100; i++ {
				batch = append(batch, client.Update{Item: i, Delta: 1})
			}
			err := c.Update(ctx, "k", batch)
			tail := batch
			for attempts := 0; err != nil; attempts++ {
				if attempts > 10 {
					t.Fatal("RetryTail did not converge")
				}
				if client.StatusCode(err) != 503 {
					t.Fatalf("unexpected failure: %v", err)
				}
				tail, err = c.RetryTail(ctx, "k", tail, err)
			}
			if len(d.applied) != len(batch) {
				t.Fatalf("server applied %d updates, want %d", len(d.applied), len(batch))
			}
			for i, u := range d.applied {
				if u.Item != uint64(i) {
					t.Fatalf("update %d applied as item %d", i, u.Item)
				}
			}

			// A nil error is a no-op success.
			if tail, err := c.RetryTail(ctx, "k", batch, nil); err != nil || tail != nil {
				t.Errorf("RetryTail(nil) = (%v, %v), want (nil, nil)", tail, err)
			}
		})
	}
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

// TestUpdateRetryConvergesAcrossDrains: UpdateRetry rides the partial
// batch protocol to completion on its own — every drained prefix counted
// once, every tail re-sent until acknowledged.
func TestUpdateRetryConvergesAcrossDrains(t *testing.T) {
	for _, tc := range codecs {
		t.Run(tc.name, func(t *testing.T) {
			d := &drainingUpdateServer{failures: 3, prefix: 25}
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
					t.Fatalf("update %d applied as item %d: prefix re-sent or tail dropped", i, u.Item)
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

// TestRetryTailAgainstRealDrain: on a genuinely drained sketchd the tail
// resend fails again with a retryable 503 and returns the same tail —
// RetryTail never fabricates progress.
func TestRetryTailAgainstRealDrain(t *testing.T) {
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
	err := c.Update(ctx, "k", batch)
	if client.StatusCode(err) != 503 {
		t.Fatalf("update after drain: err = %v, want 503", err)
	}
	tail, err := c.RetryTail(ctx, "k", batch, err)
	if client.StatusCode(err) != 503 {
		t.Fatalf("retry against a drained server: err = %v, want 503", err)
	}
	if len(tail) != len(batch) {
		t.Fatalf("drained server accepted nothing but tail shrank to %d of %d", len(tail), len(batch))
	}
}
