// Package client is the Go client for sketchd (internal/server): batched
// ingest, flushed reads, and binary snapshot/merge state transfer between
// servers. All methods are safe for concurrent use.
//
// By default the client speaks the negotiated binary framing of
// internal/wire on the hot endpoints — update batches go to POST
// /v2/update as updates frames, query batches to POST /v2/query as query
// frames with frame answers — and falls back to nothing: servers of this
// repository always understand frames, and every other endpoint stays
// JSON. WithCodec(CodecJSON) pins the JSON codec instead (debug/compat;
// byte-identical semantics, error responses included: they are always
// JSON).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// Update mirrors the wire type: f[Item] += Delta.
type Update = server.UpdateItem

// TenantSpec mirrors the declarative tenant description of POST /v2/keys:
// the sketch × policy × stream-model combination plus the tenant's own
// (ε, δ, n, shards, flip budget, λ, α, seed). See server.TenantSpec
// for field semantics.
type TenantSpec = server.TenantSpec

// Query and Answer mirror the typed query surface of POST /v2/query.
type (
	Query  = server.Query
	Answer = server.Answer
)

// ItemWeight is one candidate heavy item with its estimated frequency in
// a topk answer.
type ItemWeight = server.ItemWeight

// Codec selects the wire encoding for update and query batches.
type Codec int

const (
	// CodecBinary frames update and query batches with internal/wire
	// (Content-Type/Accept: application/x-sketch-frame). The default.
	CodecBinary Codec = iota

	// CodecJSON sends JSON bodies — the debug/compat codec, semantically
	// identical to binary.
	CodecJSON
)

// Option configures a Client.
type Option func(*Client)

// WithCodec selects the update/query codec (default CodecBinary).
func WithCodec(codec Codec) Option {
	return func(c *Client) { c.codec = codec }
}

// Client talks to one sketchd instance.
type Client struct {
	base  string
	hc    *http.Client
	codec Codec

	// encPool recycles frame-encode buffers across Update/Query calls, so
	// a steady-state producer allocates no encode buffers per batch.
	encPool sync.Pool
}

// New returns a client for the sketchd instance at base (e.g.
// "http://127.0.0.1:8080"). Pass nil to use http.DefaultClient.
func New(base string, hc *http.Client, opts ...Option) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(base, "/"), hc: hc}
	c.encPool.New = func() any {
		b := make([]byte, 0, 8<<10)
		return &b
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// apiError turns a non-2xx reply into an error carrying the server's
// message and status code.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("sketchd: %s (HTTP %d)", e.Msg, e.Status)
}

// StatusCode returns the HTTP status of err if it came from the server,
// else 0.
func StatusCode(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// do issues the request and decodes a JSON reply into out (unless out is
// nil) or returns the raw body when raw is non-nil. Whatever the outcome,
// the response body is read to EOF and closed before returning — a body
// left undrained would kill its keep-alive connection, and a client
// riding out a sustained error storm (the insertion-model 400s, a drain's
// 503s) must keep reusing connections rather than opening one per
// failure. Error replies are JSON under every codec, so the ErrorResponse
// decode here never depends on accept.
func (c *Client) do(ctx context.Context, method, path string, q url.Values, body []byte, contentType, accept string, out any, raw *[]byte) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e server.ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return &apiError{Status: resp.StatusCode, Msg: e.Error}
		}
		return &apiError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
	}
	if raw != nil {
		*raw = data
		return nil
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

func keyQuery(key string) url.Values { return url.Values{"key": {key}} }

// CreateTenant declares keyspace key from a TenantSpec (POST /v2/keys),
// the only way a tenant is admitted: a registry sketch, a policy (empty
// means none), and the tenant's own ε, δ, n, shards, flip budget and
// seed, with unset sizing fields falling back to the server defaults.
// It returns the tenant's KeyStats echoing the fully resolved spec (seed
// withheld by the server). Idempotent when every explicitly set field
// agrees with the existing tenant; a disagreement fails with 409.
func (c *Client) CreateTenant(ctx context.Context, key string, spec TenantSpec) (*server.KeyStats, error) {
	body, err := json.Marshal(server.CreateTenantRequest{Key: key, Spec: spec})
	if err != nil {
		return nil, err
	}
	var ks server.KeyStats
	if err := c.do(ctx, http.MethodPost, "/v2/keys", nil, body, "application/json", "", &ks, nil); err != nil {
		return nil, err
	}
	return &ks, nil
}

// Query sends a batch of typed queries (POST /v2/query) against keyspace
// key and returns the full response: one typed answer per query in
// request order, each carrying the tenant's ε-derived error bound, plus
// the tenant's flip-budget state. Every answer in a batch reflects the
// same flushed stream prefix. Under the default binary codec the batch is
// transcoded by server.QueryRequest.Frame and sent as a query frame, and
// the answer frame comes back through server.ResponseFromFrame; under
// CodecJSON both directions are JSON. The decoded response is identical
// either way — including errors: a batch Frame refuses is sent as JSON,
// so the server stays the single validation authority and the caller
// sees its 400, not a client-side guess.
func (c *Client) Query(ctx context.Context, key string, queries []Query) (*server.QueryResponse, error) {
	req := server.QueryRequest{Key: key, Queries: queries}
	wq, err := req.Frame()
	if c.codec == CodecJSON || err != nil {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		var resp server.QueryResponse
		if err := c.do(ctx, http.MethodPost, "/v2/query", nil, body, "application/json", "", &resp, nil); err != nil {
			return nil, err
		}
		return &resp, nil
	}
	bp := c.encPool.Get().(*[]byte)
	frame := wire.AppendQuery((*bp)[:0], &wq)
	var raw []byte
	err = c.do(ctx, http.MethodPost, "/v2/query", nil, frame, wire.ContentType, wire.ContentType, nil, &raw)
	*bp = frame[:0]
	c.encPool.Put(bp)
	if err != nil {
		return nil, err
	}
	wresp, err := wire.DecodeAnswer(raw)
	if err != nil {
		return nil, fmt.Errorf("sketchd: bad answer frame: %w", err)
	}
	return server.ResponseFromFrame(wresp), nil
}

// QueryPoint returns the point estimate of f[item] for keyspace key,
// together with the absolute error bound ε·‖f‖₂ implied by the tenant's
// resolved ε (KeyStats.PointQueries tenants only; others answer HTTP 400).
func (c *Client) QueryPoint(ctx context.Context, key string, item uint64) (value, bound float64, err error) {
	resp, err := c.Query(ctx, key, []Query{{Kind: server.QueryPoint, Item: server.U64(item)}})
	if err != nil {
		return 0, 0, err
	}
	if len(resp.Answers) != 1 {
		return 0, 0, fmt.Errorf("sketchd: %d answers to a 1-query batch", len(resp.Answers))
	}
	return resp.Answers[0].Value, resp.Answers[0].ErrorBound, nil
}

// TopK returns the k largest-magnitude candidate heavy items of keyspace
// key with their estimated frequencies, largest |weight| first
// (countsketch+none and countsketch+ring tenants only, as QueryPoint).
func (c *Client) TopK(ctx context.Context, key string, k int) ([]ItemWeight, error) {
	resp, err := c.Query(ctx, key, []Query{{Kind: server.QueryTopK, K: k}})
	if err != nil {
		return nil, err
	}
	if len(resp.Answers) != 1 {
		return nil, fmt.Errorf("sketchd: %d answers to a 1-query batch", len(resp.Answers))
	}
	return resp.Answers[0].Items, nil
}

// DeleteKey tears keyspace key down, freeing its quota slot.
func (c *Client) DeleteKey(ctx context.Context, key string) error {
	return c.do(ctx, http.MethodDelete, "/v1/keys", keyQuery(key), nil, "", "", nil, nil)
}

// Update sends one batch of updates to keyspace key, which must have been
// declared with CreateTenant: an unknown key fails with 404. Under the
// default binary codec the batch goes to POST /v2/update as an updates
// frame encoded into a pooled buffer; under CodecJSON it goes to POST
// /v1/update. A batch lands whole or not at all: on any error reply
// (a draining server's 503 included) none of it was applied.
func (c *Client) Update(ctx context.Context, key string, updates []Update) error {
	if c.codec == CodecJSON {
		body, err := json.Marshal(server.UpdateRequest{Updates: updates})
		if err != nil {
			return err
		}
		return c.do(ctx, http.MethodPost, "/v1/update", keyQuery(key), body, "application/json", "", nil, nil)
	}
	bp := c.encPool.Get().(*[]byte)
	frame := wire.AppendUpdatesFunc((*bp)[:0], len(updates), func(i int) wire.Update {
		return wire.Update{Item: updates[i].Item, Delta: updates[i].Delta}
	})
	err := c.do(ctx, http.MethodPost, "/v2/update", keyQuery(key), frame, wire.ContentType, "", nil, nil)
	*bp = frame[:0]
	c.encPool.Put(bp)
	return err
}

// UpdateRetry sends a batch and rides out transient failures until it is
// acknowledged, the context ends, or the server rejects it for good. It is
// the ingest loop for clients that must survive a sketchd drain or
// restart (durable servers journal acknowledged batches and recover them
// on boot; unacknowledged ones are the client's to re-send):
//
//   - 503 (drain, recovery) and transport errors (connection refused or
//     reset while the server is down or restarting): the whole batch is
//     re-sent after a backoff. A 503 applied none of it. Delivery across a
//     transport error is at-least-once — a crash after the journal append
//     but before the ack makes the retry a duplicate; a durable server
//     narrows that window to the unacknowledged request in flight, it does
//     not close it.
//   - any other API error (4xx conflicts, quota, validation) is final
//     and returned as-is.
//
// Backoff doubles from 10ms and caps at 500ms; a cancelled context
// returns ctx.Err wrapped, with the batch unacknowledged.
func (c *Client) UpdateRetry(ctx context.Context, key string, updates []Update) error {
	backoff := 10 * time.Millisecond
	const maxBackoff = 500 * time.Millisecond
	for {
		err := c.Update(ctx, key, updates)
		if err == nil {
			return nil
		}
		if code := StatusCode(err); code != 0 && code != http.StatusServiceUnavailable {
			return err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("sketchd: update retry abandoned with %d updates unacknowledged: %w", len(updates), ctx.Err())
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// Add is Update with delta 1 for each item.
func (c *Client) Add(ctx context.Context, key string, items ...uint64) error {
	ups := make([]Update, len(items))
	for i, it := range items {
		ups[i] = Update{Item: it, Delta: 1}
	}
	return c.Update(ctx, key, ups)
}

// Estimate returns the flushed, combined estimate for key — it reflects
// every update the server accepted before the call.
func (c *Client) Estimate(ctx context.Context, key string) (float64, error) {
	var resp server.EstimateResponse
	err := c.do(ctx, http.MethodGet, "/v1/estimate", keyQuery(key), nil, "", "", &resp, nil)
	return resp.Estimate, err
}

// Snapshot returns the binary sketch state of key (static linear sketch
// types only).
func (c *Client) Snapshot(ctx context.Context, key string) ([]byte, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, "/v1/snapshot", keyQuery(key), nil, "", "", nil, &raw)
	return raw, err
}

// Merge folds a snapshot (typically from another sketchd sharing the same
// -seed and -shards) into keyspace key, which must have been declared (an
// undeclared key is a 404). A merge folds state, not stream, so the key's
// mass and deleted mass do not move. On a durable server the merged state
// is checkpointed before the 200.
func (c *Client) Merge(ctx context.Context, key string, snapshot []byte) error {
	return c.do(ctx, http.MethodPost, "/v1/merge", keyQuery(key), snapshot, "application/octet-stream", "", nil, nil)
}

// Healthz fetches GET /v1/healthz. ready reports readiness (HTTP 200
// versus the 503 a draining or still-recovering server answers); the
// response body describes why, plus the WAL and checkpoint counters,
// whenever the server got far enough to send one.
func (c *Client) Healthz(ctx context.Context) (h *server.HealthResponse, ready bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, false, &apiError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
	}
	var hr server.HealthResponse
	if err := json.Unmarshal(data, &hr); err != nil {
		return nil, false, fmt.Errorf("sketchd: bad healthz body: %w", err)
	}
	return &hr, resp.StatusCode == http.StatusOK, nil
}

// Stats returns server-wide stats and the keyspace listing.
func (c *Client) Stats(ctx context.Context) (*server.StatsResponse, error) {
	var resp server.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, nil, "", "", &resp, nil); err != nil {
		return nil, err
	}
	return &resp, nil
}

// KeyStats returns the stats entry for one keyspace, including the
// robustness-budget state of robust tenants (Robustness.Remaining /
// Exhausted), so operators can see a tenant approaching flip-budget
// exhaustion before its estimates degrade.
func (c *Client) KeyStats(ctx context.Context, key string) (*server.KeyStats, error) {
	st, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	for i := range st.Tenants {
		if st.Tenants[i].Key == key {
			return &st.Tenants[i], nil
		}
	}
	return nil, fmt.Errorf("sketchd: unknown key %q", key)
}
