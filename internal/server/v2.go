package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/wire"
)

// The /v2 surface: declarative tenant creation (POST /v2/keys, a typed
// TenantSpec body instead of query parameters) and structured queries
// (POST /v2/query, a batch of typed estimate | point | topk queries with
// typed answers). The decode helpers are split from the handlers so the
// fuzz targets can drive the exact request-parsing path the handlers use.

// Limits on a /v2/query batch. A batch is one flush-coherent read: every
// answer reflects the same flushed stream prefix, so unbounded batches
// would let a single request hold a tenant's shard workers for arbitrary
// time.
const (
	// maxQueryBatch bounds the queries per POST /v2/query request.
	maxQueryBatch = 1024

	// maxTopK bounds a topk query's answer-set size.
	maxTopK = 4096

	// defaultTopK is used when a topk query leaves K zero.
	defaultTopK = 10
)

// decodeCreateTenant parses and structurally validates a POST /v2/keys
// body. A field the spec does not have is a 400 naming it: a misspelt
// "policy" would otherwise declare a static tenant without the guarantee
// its owner asked for. Spec-level validation (ranges, caps, registry
// membership) happens in resolve, against the server defaults.
func decodeCreateTenant(data []byte) (CreateTenantRequest, error) {
	var req CreateTenantRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := decodeOne(dec, &req); err != nil {
		return CreateTenantRequest{}, fmt.Errorf("bad create body: %w", err)
	}
	if req.Key == "" {
		return CreateTenantRequest{}, errors.New("bad create body: missing key")
	}
	return req, nil
}

// DecodeQueryRequest parses a JSON query body and transcodes it through
// QueryRequest.Frame, returning both forms; it is the one JSON query
// decoder, behind POST /v2/query and the cluster's merge-all query. As for
// a create body, a field the body's shape does not have is a 400 naming
// it: a stray "items" on a query would be answered as item 0.
func DecodeQueryRequest(data []byte) (QueryRequest, wire.QueryRequest, error) {
	var req QueryRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := decodeOne(dec, &req); err != nil {
		return QueryRequest{}, wire.QueryRequest{}, fmt.Errorf("bad query body: %w", err)
	}
	wq, err := req.Frame()
	return req, wq, err
}

// unknownKind is validateQuery's refusal of query i's kind byte. Only a
// transcoded JSON body can carry one (wire.DecodeQuery refuses the byte),
// so QueryRequest.Frame words it with the kind name it was sent.
type unknownKind int

func (i unknownKind) Error() string { return fmt.Sprintf("query %d: unknown kind", int(i)) }

// validateQuery enforces the query-batch contract for both codecs, in this
// order: a key, a non-empty batch (an empty one is a client bug, not a
// trivially satisfiable request) within the batch limit, then each query
// in turn: a known kind, and on topk a k within bounds (zero takes the
// default).
func validateQuery(req *wire.QueryRequest) error {
	if req.Key == "" {
		return errors.New("bad query body: missing key")
	}
	if len(req.Queries) == 0 {
		return errors.New("bad query body: empty query batch")
	}
	if len(req.Queries) > maxQueryBatch {
		return fmt.Errorf("bad query body: %d queries exceeds the batch limit %d", len(req.Queries), maxQueryBatch)
	}
	for i := range req.Queries {
		q := &req.Queries[i]
		switch q.Kind {
		case wire.KindEstimate, wire.KindPoint:
		case wire.KindTopK:
			if q.K == 0 {
				q.K = defaultTopK
			}
			if q.K < 0 || q.K > maxTopK {
				return fmt.Errorf("query %d: topk k must be in [1, %d], got %d", i, maxTopK, q.K)
			}
		default:
			return unknownKind(i)
		}
	}
	return nil
}

// handleV2Keys serves POST /v2/keys: declarative tenant creation from a
// TenantSpec, echoing the resolved KeyStats (idempotent when the resolved
// specs agree; a different cell, or any explicitly set field that disagrees
// with an existing tenant, is a 409).
func (s *Server) handleV2Keys(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodPost) {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	req, err := decodeCreateTenant(body)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	if s.forwarded(w, r, req.Key) {
		return
	}
	t, err := s.getOrCreate(req.Key, req.Spec)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, t.stats())
}

// ServeQuery serves POST /v2/query, and POST /cluster/query without
// ?merge=all: a batch of typed queries (see Query and Answer) answered
// from one flushed read of the tenant's engine, so every answer in the
// batch reflects the same stream prefix. Queries keep working on a
// draining server — they are reads, like /v1/estimate. The body codec is
// negotiated by Content-Type (JSON or a query frame), the answer codec by
// Accept.
func (s *Server) ServeQuery(w http.ResponseWriter, r *http.Request) {
	if !methodIs(w, r, http.MethodPost) {
		return
	}
	isFrame, err := requestIsFrame(r)
	if err != nil {
		failMedia(w, err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	var req wire.QueryRequest
	if isFrame {
		if err := wire.DecodeQuery(body, &req); err != nil {
			fail(w, http.StatusBadRequest, fmt.Errorf("bad query frame: %w", err))
			return
		}
		err = validateQuery(&req)
	} else {
		_, req, err = DecodeQueryRequest(body)
	}
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	if s.forwarded(w, r, req.Key) {
		return
	}
	resp, status, err := s.answerLocal(&req)
	if err != nil {
		fail(w, status, err)
		return
	}
	writeQueryResponse(w, r, resp)
}
