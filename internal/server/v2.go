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

// decodeQueryRequest parses and validates a POST /v2/query JSON body.
func decodeQueryRequest(data []byte) (QueryRequest, error) {
	var req QueryRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return QueryRequest{}, fmt.Errorf("bad query body: %w", err)
	}
	if err := validateQueryRequest(&req); err != nil {
		return QueryRequest{}, err
	}
	return req, nil
}

// validateQueryRequest enforces the query-batch contract regardless of
// codec (the binary path funnels through it too, so both codecs reject
// with identical messages): a known kind on every query, a k within
// bounds on topk queries (zero takes the default), and a non-empty batch
// — an empty batch is a client bug, not a trivially satisfiable request.
func validateQueryRequest(req *QueryRequest) error {
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
		case QueryEstimate, QueryPoint:
		case QueryTopK:
			if q.K == 0 {
				q.K = defaultTopK
			}
			if q.K < 0 || q.K > maxTopK {
				return fmt.Errorf("query %d: topk k must be in [1, %d], got %d", i, maxTopK, q.K)
			}
		default:
			return fmt.Errorf("query %d: unknown kind %q (have: %s, %s, %s)",
				i, q.Kind, QueryEstimate, QueryPoint, QueryTopK)
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

// handleV2Query serves POST /v2/query: a batch of typed queries answered
// from one flushed read of the tenant's engine, so every answer in the
// batch reflects the same stream prefix. Point and topk queries are
// answered by countsketch+none and countsketch+ring tenants only (see
// QueryPoint); their error bound is the Section 6 guarantee ε·‖f‖₂, from
// the tenant's resolved ε and its current norm estimate. Queries keep
// working on a draining server — they are reads, like /v1/estimate. The
// body codec is negotiated by Content-Type (JSON or a query frame) and the
// answer codec by Accept; both arms share validateQueryRequest and the
// answer assembly below, so codec choice never changes semantics.
func (s *Server) handleV2Query(w http.ResponseWriter, r *http.Request) {
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
	var req QueryRequest
	if isFrame {
		var wq wire.QueryRequest
		if err := wire.DecodeQuery(body, &wq); err != nil {
			fail(w, http.StatusBadRequest, fmt.Errorf("bad query frame: %w", err))
			return
		}
		if req, err = queryFromFrame(&wq); err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
	} else if req, err = decodeQueryRequest(body); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	if s.forwarded(w, r, req.Key) {
		return
	}

	// The batch is routed into one engine pass — a single flush barrier
	// answers the whole batch, and any smaller topk answer is a prefix of
	// the ranked maximum-k result; see answerQuery (shared with the
	// cluster global-query paths).
	resp, status, err := s.AnswerLocal(&req)
	if err != nil {
		fail(w, status, err)
		return
	}
	writeQueryResponse(w, r, resp)
}
