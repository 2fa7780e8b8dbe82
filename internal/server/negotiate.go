package server

import (
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Codec negotiation. POST /v2/update and POST /v2/query accept either
// JSON (the debug/compat codec; also the default when no Content-Type is
// sent) or binary frames (Content-Type: application/x-sketch-frame), and
// /v2/query answers in frames when the Accept header asks for them. The
// two codecs are semantically byte-identical — both funnel into the same
// apply core and the same validation, so the insertion-model 400, the
// drain protocol's Accepted counts, and the 503/410 split do not depend
// on the encoding. Error responses are always JSON: a client in either
// codec needs the structured ErrorResponse contract (RetryTail reads
// Accepted from it), and an error path is never hot enough to frame.

// countedPool wraps sync.Pool with an outstanding-checkout counter. The
// counter exists for the pool-safety regression tests: every request path
// — success and every early-error exit — must return what it took, or the
// pools stop recycling and the zero-alloc ingest claim quietly rots. One
// atomic add per request round-trip is noise next to the HTTP stack.
type countedPool struct {
	pool sync.Pool
	live atomic.Int64 // Gets minus Puts; zero whenever the server is idle
}

func (c *countedPool) Get() any {
	c.live.Add(1)
	return c.pool.Get()
}

func (c *countedPool) Put(v any) {
	c.pool.Put(v)
	c.live.Add(-1)
}

// Pooled buffers for the binary ingest path: one pool for raw request
// bodies, one for decoded update batches. Both recycle through steady
// state so the server-side codec layer allocates nothing per request.
var (
	bodyPool = countedPool{pool: sync.Pool{New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	}}}
	updatesPool = countedPool{pool: sync.Pool{New: func() any {
		u := make([]wire.Update, 0, 1024)
		return &u
	}}}
	framePool = sync.Pool{New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	}}
)

// readBody reads the whole request body into a pooled buffer. The caller
// must hand the returned pointer back via putBody when done with the
// bytes.
func readBody(r *http.Request) (*[]byte, error) {
	bp := bodyPool.Get().(*[]byte)
	buf := (*bp)[:0]
	lr := io.LimitReader(r.Body, maxBodyBytes+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = buf
			bodyPool.Put(bp)
			return nil, err
		}
	}
	*bp = buf
	if len(buf) > maxBodyBytes {
		bodyPool.Put(bp)
		return nil, fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)
	}
	return bp, nil
}

func putBody(bp *[]byte) { bodyPool.Put(bp) }

// errUnsupportedMedia marks a Content-Type outside the negotiated set;
// the handlers map it to 415.
var errUnsupportedMedia = errors.New("unsupported media type")

// requestIsFrame reports whether the request body is a binary frame. An
// absent Content-Type means JSON (the compat default: every pre-binary
// client speaks it).
func requestIsFrame(r *http.Request) (bool, error) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return false, nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false, fmt.Errorf("%w: malformed Content-Type %q", errUnsupportedMedia, ct)
	}
	switch mt {
	case wire.ContentType:
		return true, nil
	case "application/json":
		return false, nil
	}
	return false, fmt.Errorf("%w: Content-Type %q (use application/json or %s)", errUnsupportedMedia, mt, wire.ContentType)
}

// wantsFrame reports whether the Accept header asks for frame responses.
// Anything else (including no Accept at all) gets JSON.
func wantsFrame(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if mt, _, err := mime.ParseMediaType(strings.TrimSpace(part)); err == nil && mt == wire.ContentType {
			return true
		}
	}
	return false
}

// failMedia answers an out-of-contract Content-Type.
func failMedia(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusUnsupportedMediaType, ErrorResponse{Error: err.Error()})
}

// applyUpdates is the single apply core behind every ingest codec and
// endpoint version: the insertion-model pre-scan (the whole batch is
// rejected before anything lands) followed by the TryUpdate drain/delete
// protocol. One core is what keeps the JSON and binary paths
// byte-identical in semantics — same 400 message, same Accepted counts,
// same 503/410 split. Responses (success and error alike) are JSON in
// both codecs: they are a handful of bytes either way.
func (s *Server) applyUpdates(w http.ResponseWriter, t *tenant, us []wire.Update) {
	if !t.spec.signed {
		for i, u := range us {
			if u.Delta < 0 {
				writeJSON(w, http.StatusBadRequest, ErrorResponse{
					Error: fmt.Sprintf("update %d: negative delta %d on insertion-only tenant %q (model=%s): deletions void the insertion-only guarantee; declare the tenant with model=turnstile or model=bounded_deletion — nothing was applied",
						i, u.Delta, t.key, t.ts.Model),
				})
				return
			}
		}
	}
	// Durable ordering is apply → log → ack under the tenant's walMu read
	// side, so a checkpoint (write side) never cuts between an update's
	// engine state and its log record; see durable.go.
	if s.wal != nil {
		t.walMu.RLock()
		defer t.walMu.RUnlock()
	}
	// TryUpdate instead of Update: a request that lost the race against
	// Drain (or a concurrent DELETE of the key) finds the engine closed
	// and gets a clean error, not a panicking connection. Under drain the
	// applied prefix is in the drained state, so Accepted tells the client
	// to retry only the tail; under delete the prefix died with the
	// engine, so Accepted stays 0 and the client re-sends the full batch.
	for i, u := range us {
		if !t.eng.TryUpdate(u.Item, u.Delta) {
			if s.draining.Load() {
				// The accepted prefix is in the drained state the client is
				// told about; journal it so a crash after the drain recovers
				// exactly what Accepted promised. Best effort — a clean
				// shutdown's checkpoints capture the drained state anyway.
				_ = s.logUpdates(t, us[:i])
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
					Error:    fmt.Sprintf("%v (accepted %d of %d updates)", errDraining, i, len(us)),
					Accepted: i,
				})
			} else {
				writeJSON(w, http.StatusGone, ErrorResponse{
					Error: fmt.Sprintf("keyspace %q was deleted concurrently; re-send the full batch", t.key),
				})
			}
			return
		}
	}
	if err := s.logUpdates(t, us); err != nil {
		// Applied in memory but not journaled: refuse the ack so the
		// client retries. Over-acknowledging here would break the "log ≡
		// acknowledged stream" invariant recovery depends on.
		fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, UpdateResponse{Accepted: len(us)})
	s.maybeCheckpoint(t, len(us))
}

// handleV2Update serves POST /v2/update: the same ?key= addressing and
// apply semantics as /v1/update, with the body codec negotiated by
// Content-Type — a binary updates frame or the JSON UpdateRequest.
func (s *Server) handleV2Update(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodPost) {
		return
	}
	isFrame, err := requestIsFrame(r)
	if err != nil {
		failMedia(w, err)
		return
	}
	if !isFrame {
		s.handleUpdateJSON(w, r)
		return
	}
	bp, err := readBody(r)
	if err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("bad update body: %w", err))
		return
	}
	defer putBody(bp)
	up := updatesPool.Get().(*[]wire.Update)
	defer func() {
		updatesPool.Put(up)
	}()
	us, err := wire.DecodeUpdates(*bp, (*up)[:0])
	if err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("bad update frame: %w", err))
		return
	}
	*up = us[:0]
	if t := s.tenantFor(w, r); t != nil {
		s.applyUpdates(w, t, us)
	}
}

// Binary twins of the JSON query kinds.
var kindNames = map[uint8]string{
	wire.KindEstimate: QueryEstimate,
	wire.KindPoint:    QueryPoint,
	wire.KindTopK:     QueryTopK,
}

var kindBytes = map[string]uint8{
	QueryEstimate: wire.KindEstimate,
	QueryPoint:    wire.KindPoint,
	QueryTopK:     wire.KindTopK,
}

// queryFromFrame converts a decoded query frame into the canonical
// QueryRequest, then runs the same validation as the JSON decoder, so
// both codecs enforce identical batch and k limits with identical
// messages.
func queryFromFrame(wq *wire.QueryRequest) (QueryRequest, error) {
	req := QueryRequest{Key: wq.Key, Queries: make([]Query, 0, len(wq.Queries))}
	for i, q := range wq.Queries {
		kind, ok := kindNames[q.Kind]
		if !ok {
			return QueryRequest{}, fmt.Errorf("query %d: unknown kind %d", i, q.Kind)
		}
		req.Queries = append(req.Queries, Query{Kind: kind, Item: U64(q.Item), K: q.K})
	}
	if err := validateQueryRequest(&req); err != nil {
		return QueryRequest{}, err
	}
	return req, nil
}

// responseToFrame converts the canonical QueryResponse into its frame
// form.
func responseToFrame(resp *QueryResponse) wire.QueryResponse {
	out := wire.QueryResponse{
		Key:     resp.Key,
		Sketch:  resp.Sketch,
		Policy:  resp.Policy,
		Model:   resp.Model,
		Answers: make([]wire.Answer, 0, len(resp.Answers)),
		// Same fields, JSON tags apart: a conversion, not a copy to maintain.
		Robustness: (*wire.Robustness)(resp.Robustness),
	}
	for _, a := range resp.Answers {
		wa := wire.Answer{
			Kind:       kindBytes[a.Kind],
			Value:      a.Value,
			ErrorBound: a.ErrorBound,
			Additive:   a.Additive,
		}
		if a.Item != nil {
			wa.HasItem = true
			wa.Item = uint64(*a.Item)
		}
		if len(a.Items) > 0 {
			wa.Items = make([]wire.ItemWeight, len(a.Items))
			for i, iw := range a.Items {
				wa.Items[i] = wire.ItemWeight{Item: uint64(iw.Item), Weight: iw.Weight}
			}
		}
		out.Answers = append(out.Answers, wa)
	}
	return out
}

// writeQueryResponse answers a /v2/query in the negotiated codec.
func writeQueryResponse(w http.ResponseWriter, r *http.Request, resp *QueryResponse) {
	if !wantsFrame(r) {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	fp := framePool.Get().(*[]byte)
	defer framePool.Put(fp)
	out := responseToFrame(resp)
	frame := wire.AppendAnswer((*fp)[:0], &out)
	*fp = frame[:0]
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)
}
