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
// apply core and the same validation, so the insertion-model 400 and the
// 503/410/500 refusals, each of which applies nothing, do not depend on
// the encoding. Error responses are always JSON {"error": …}: one shape
// for a client in either codec, and an error path is never hot enough to
// frame.

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
// endpoint version. A batch lands whole or not at all: the insertion-model
// pre-scan rejects it with a 400 before anything lands, and ingest either
// journals and applies all of it or refuses it with nothing journaled or
// applied. One core is what keeps the JSON and binary paths byte-identical
// in semantics — same 400 message, same 503/410/500 split. Responses
// (success and error alike) are JSON in both codecs: they are a handful of
// bytes either way.
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
	if err := s.ingest(t, us); err != nil {
		fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, UpdateResponse{Accepted: len(us)})
}

// ingest journals a batch, applies it whole and takes the checkpoint it may
// be due, under t's write lock, which it releases before the caller writes
// the response: log order is apply order. Nothing closes a mapped engine
// without the lock, so once writable passes Apply cannot find it closed; and
// a batch the log refuses never reaches the engine.
func (s *Server) ingest(t *tenant, us []wire.Update) error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if err := s.writable(t); err != nil {
		return err
	}
	if err := t.admitMass(us); err != nil {
		return err
	}
	if err := s.logUpdates(t, us); err != nil {
		return fmt.Errorf("%w: %v", errJournal, err)
	}
	t.apply(us)
	s.cadence(t, len(us))
	return nil
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

// writeQueryResponse answers a /v2/query in the negotiated codec.
func writeQueryResponse(w http.ResponseWriter, r *http.Request, resp *wire.QueryResponse) {
	if !wantsFrame(r) {
		writeJSON(w, http.StatusOK, ResponseFromFrame(resp))
		return
	}
	fp := framePool.Get().(*[]byte)
	defer framePool.Put(fp)
	frame := wire.AppendAnswer((*fp)[:0], resp)
	*fp = frame[:0]
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)
}
