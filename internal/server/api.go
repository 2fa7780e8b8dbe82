package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/wire"
)

// JSON shapes of the sketchd HTTP API, shared with internal/client. A
// query is checked and answered in one form, wire.QueryRequest and
// wire.QueryResponse, whichever codec carried it; a JSON query body is
// transcoded into it by QueryRequest.Frame and a JSON answer out of it by
// ResponseFromFrame, and the client decodes with the same two functions.
//
// v1 endpoints (keyed by the ?key= query parameter; a key no POST
// /v2/keys declared on this node is a 404 on every one of them):
//
//	POST /v1/update    {"updates":[{"item":1,"delta":2},...]}  batched ingest
//	GET  /v1/estimate  flushes, returns the combined estimate
//	GET  /v1/snapshot  binary sketch state (application/octet-stream)
//	POST /v1/merge     folds a snapshot (possibly from another server) into
//	                   the keyspace; on a durable server the merged state is
//	                   checkpointed before the 200
//	DELETE /v1/keys    tears a keyspace down, freeing its quota slot
//	GET  /v1/stats     server-wide stats and per-keyspace listing,
//	                   including each tenant's resolved spec and
//	                   flip-budget state
//	GET  /v1/healthz   readiness plus WAL and checkpoint counters
//
// v2 endpoints (JSON bodies; update and query also take wire frames):
//
//	POST /v2/keys      {"key":"k","spec":{...TenantSpec...}} — declarative
//	                   tenant creation, the only way a tenant is admitted;
//	                   echoes the resolved KeyStats
//	POST /v2/update    /v1/update under either negotiated codec
//	POST /v2/query     {"key":"k","queries":[{"kind":"estimate"},
//	                   {"kind":"point","item":"123"},{"kind":"topk","k":10}]}
//	                   — batched structured queries with typed answers
//
// Item identifiers are uint64. On the wire they are accepted as either a
// JSON number or a decimal string ("18446744073709551615"): JSON numbers
// round-trip through float64 in most non-Go clients, silently corrupting
// identifiers above 2^53, so clients holding large ids must send strings.
// The server emits numbers below 2^53 and strings at or above it, which
// keeps small ids human-readable while never producing a value a
// float64-based client would corrupt.

// jsonSafeInt is the largest integer float64 represents exactly (2^53).
// Item ids at or above it are emitted as decimal strings.
const jsonSafeInt = uint64(1) << 53

// U64 is a uint64 item identifier with the string-or-number JSON rule
// above: it unmarshals from either form and marshals as a number below
// 2^53, a decimal string at or above.
type U64 uint64

// MarshalJSON implements json.Marshaler.
func (v U64) MarshalJSON() ([]byte, error) {
	if uint64(v) < jsonSafeInt {
		return strconv.AppendUint(nil, uint64(v), 10), nil
	}
	b := make([]byte, 0, 22)
	b = append(b, '"')
	b = strconv.AppendUint(b, uint64(v), 10)
	return append(b, '"'), nil
}

// UnmarshalJSON implements json.Unmarshaler, accepting a JSON number or a
// decimal string. Floats, negatives and overflow are rejected loudly —
// silently truncating an identifier would corrupt the stream.
func (v *U64) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' {
		var err error
		if s, err = strconv.Unquote(s); err != nil {
			return fmt.Errorf("item id: %w", err)
		}
	}
	u, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return fmt.Errorf("item id %q: must be a uint64 (number or decimal string)", s)
	}
	*v = U64(u)
	return nil
}

// UpdateItem is one stream update: f[Item] += Delta.
type UpdateItem struct {
	Item  uint64 `json:"item"`
	Delta int64  `json:"delta"`
}

// updateItemWire carries UpdateItem's JSON form with the U64 item rule.
type updateItemWire struct {
	Item  U64   `json:"item"`
	Delta int64 `json:"delta"`
}

// MarshalJSON implements json.Marshaler with the U64 item rule.
func (u UpdateItem) MarshalJSON() ([]byte, error) {
	return json.Marshal(updateItemWire{Item: U64(u.Item), Delta: u.Delta})
}

// UnmarshalJSON implements json.Unmarshaler, accepting the item as a JSON
// number or a decimal string.
func (u *UpdateItem) UnmarshalJSON(data []byte) error {
	var w updateItemWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	u.Item, u.Delta = uint64(w.Item), w.Delta
	return nil
}

// UpdateRequest is the body of POST /v1/update.
type UpdateRequest struct {
	Updates []UpdateItem `json:"updates"`
}

// UpdateResponse reports how many updates were accepted.
type UpdateResponse struct {
	Accepted int `json:"accepted"`
}

// EstimateResponse is the body of GET /v1/estimate.
type EstimateResponse struct {
	Key      string  `json:"key"`
	Sketch   string  `json:"sketch"`
	Estimate float64 `json:"estimate"`
}

// TenantSpec is the declarative description of one tenant: which sketch ×
// policy combination backs it and the accuracy / sizing parameters its
// engine is built from. The paper's framework is parameterized per
// statistic — each robust instance is sized from its own (ε, δ, n, λ) —
// and TenantSpec carries exactly that per-tenant accounting; the server
// Config supplies defaults for unset fields and caps the resource-shaped
// ones, nothing more.
//
// Sketch is required; every other field is optional and its zero value
// resolves to the server's default sizing.
type TenantSpec struct {
	// Sketch is the base sketch type (f2, kmv, countsketch, cc). A spec
	// without one is a 400 that lists the registry.
	Sketch string `json:"sketch,omitempty"`

	// Policy is the robustness policy (none, switching, ring, paths).
	// Empty means none.
	Policy string `json:"policy,omitempty"`

	// Eps is the tenant's accuracy target ε ∈ (0, 1): relative 1±ε for
	// the norm and moment statistics, additive bits for entropy. Zero
	// picks the server default.
	Eps float64 `json:"eps,omitempty"`

	// Delta is the tenant's failure probability δ ∈ (0, 1); each shard
	// instance is sized at δ/Shards (union bound). Zero picks the server
	// default.
	Delta float64 `json:"delta,omitempty"`

	// N is the universe-size bound handed to the robust constructors.
	// Zero picks the server default.
	N U64 `json:"n,omitempty"`

	// Shards is the tenant engine's shard count, capped at MaxTenantShards.
	// Zero picks the server default for a static tenant and one for a
	// robust tenant, so a robust tenant's flip budget, switches and copies
	// are one ensemble's, the whole tenant's.
	Shards int `json:"shards,omitempty"`

	// FlipBudget is the flip number λ for the switching and paths
	// policies, capped at MaxTenantFlipBudget. Zero picks the server
	// default. On a model=turnstile tenant it is unified with Lambda —
	// the declared flip bound of the class is the budget — so setting
	// both to different values is a 400.
	FlipBudget int `json:"flip_budget,omitempty"`

	// Model is the stream class the tenant declares: "insertion" (the
	// default — deltas are never negative, and the server enforces it
	// with a 400 on any negative delta), "turnstile" (Theorem 1.6's
	// class S_λ of arbitrary-sign streams with declared flip bound
	// Lambda), or "bounded_deletion" (Definition 8.1's Fp α-bounded-
	// deletion streams, parameterized by Alpha). Robust non-insertion
	// models are hosted only by sketches with the matching theory
	// (the f2 column, via the Fp moment problem); invalid sketch ×
	// policy × model cells are rejected at create time.
	Model string `json:"model,omitempty"`

	// Lambda is the declared Fp flip bound λ ≥ 1 of a model=turnstile
	// tenant (the class S_λ is defined by it; the robustness guarantee is
	// conditional on the stream honoring it). Capped at
	// MaxTenantFlipBudget; zero inherits FlipBudget. Only valid with
	// model=turnstile.
	Lambda int `json:"lambda,omitempty"`

	// Alpha is the bounded-deletion parameter α ≥ 1 of Definition 8.1:
	// at every prefix ‖f‖_p^p ≥ (1/α)·‖h‖_p^p. Required (and only valid)
	// with model=bounded_deletion; capped at MaxTenantAlpha.
	Alpha float64 `json:"alpha,omitempty"`

	// Seed overrides the server's root randomness seed for this tenant
	// (the tenant's shard seeds derive from it and the key). Tenants on
	// two servers exchange snapshots only when their resolved seeds match.
	// Zero keeps the server root seed. Never echoed back: a leaked seed is
	// exactly the state compromise the seed-leak adversary exploits.
	Seed int64 `json:"seed,omitempty"`
}

// CreateTenantRequest is the body of POST /v2/keys.
type CreateTenantRequest struct {
	Key  string     `json:"key"`
	Spec TenantSpec `json:"spec"`
}

// Query kinds accepted by POST /v2/query.
const (
	// QueryEstimate asks for the tenant's combined statistic (the v1
	// /v1/estimate value): L2 norm, F2 moment, distinct count, entropy —
	// whatever the tenant's sketch × policy cell publishes.
	QueryEstimate = "estimate"

	// QueryPoint asks for the point estimate of f[item]. Two cells
	// answer it: countsketch+none from the live static sketch (oblivious
	// guarantee), and countsketch+ring from the frozen copies of
	// Theorem 6.5, the paper's one adversarially robust per-coordinate
	// surface. Every other tenant — countsketch+switching and +paths
	// included, whose guarantee exists only while the ε-rounded scalar is
	// all the adversary sees (Lemmas 3.6, 3.8) — answers 400.
	QueryPoint = "point"

	// QueryTopK asks for the k largest-magnitude candidate heavy items
	// with their estimated frequencies (the same two cells as QueryPoint).
	QueryTopK = "topk"
)

// Query is one typed query in a POST /v2/query batch.
type Query struct {
	// Kind is one of estimate, point, topk.
	Kind string `json:"kind"`

	// Item is the queried coordinate for kind point (number or decimal
	// string, same rule as update items).
	Item U64 `json:"item,omitempty"`

	// K is the answer-set size for kind topk.
	K int `json:"k,omitempty"`
}

// QueryRequest is the body of POST /v2/query.
type QueryRequest struct {
	Key     string  `json:"key"`
	Queries []Query `json:"queries"`
}

// ItemWeight is one candidate heavy item and its estimated frequency in a
// topk answer.
type ItemWeight struct {
	Item   U64     `json:"item"`
	Weight float64 `json:"weight"`
}

// Answer is the typed response to one Query, in request order.
type Answer struct {
	// Kind echoes the query kind.
	Kind string `json:"kind"`

	// Item echoes the queried coordinate for kind point (a pointer so an
	// echo of item 0 survives the wire and non-point answers omit the
	// field entirely).
	Item *U64 `json:"item,omitempty"`

	// Value is the estimate for kinds estimate and point. Never omitted:
	// zero is a meaningful answer (an absent coordinate, an empty
	// stream).
	Value float64 `json:"value"`

	// Items is the answer set for kind topk, largest |weight| first.
	Items []ItemWeight `json:"items,omitempty"`

	// ErrorBound is the guarantee radius implied by the tenant's resolved
	// ε: for kind estimate it is ε itself (relative 1±ε, or additive bits
	// when Additive); for kinds point and topk it is the absolute bound
	// ε·‖f‖₂ computed from the tenant's current norm estimate, the
	// Section 6 point-query guarantee.
	ErrorBound float64 `json:"error_bound"`

	// Additive marks tenants whose ε is an additive error (entropy, in
	// bits) rather than a relative one; set on estimate answers.
	Additive bool `json:"additive,omitempty"`
}

// QueryResponse is the body of POST /v2/query.
type QueryResponse struct {
	Key    string `json:"key"`
	Sketch string `json:"sketch"`
	Policy string `json:"policy"`
	Model  string `json:"model"`

	// Answers holds one typed answer per request query, in order.
	Answers []Answer `json:"answers"`

	// Robustness is the tenant's flip-budget state at answer time (nil
	// for static tenants): a client auditing its own adaptive query load
	// can check Exhausted alongside every batch.
	Robustness *RobustnessStats `json:"robustness,omitempty"`
}

// Frame transcodes q into the form every query is checked and answered in,
// then checks it as a query frame is checked (validateQuery), so both
// codecs refuse a batch with the same message. Only the field its kind
// reads is carried: an item on a point query, k on a topk query.
func (q *QueryRequest) Frame() (wire.QueryRequest, error) {
	wq := wire.QueryRequest{Key: q.Key, Queries: make([]wire.Query, len(q.Queries))}
	for i, jq := range q.Queries {
		wq.Queries[i].Kind = wire.KindOf(jq.Kind)
		switch wq.Queries[i].Kind {
		case wire.KindPoint:
			wq.Queries[i].Item = uint64(jq.Item)
		case wire.KindTopK:
			wq.Queries[i].K = jq.K
		}
	}
	err := validateQuery(&wq)
	var bad unknownKind
	if errors.As(err, &bad) {
		err = fmt.Errorf("query %d: unknown kind %q (have: %s, %s, %s)",
			int(bad), q.Queries[bad].Kind, QueryEstimate, QueryPoint, QueryTopK)
	}
	return wq, err
}

// ResponseFromFrame transcodes an answer into its JSON shape.
func ResponseFromFrame(wr *wire.QueryResponse) *QueryResponse {
	resp := &QueryResponse{
		Key:        wr.Key,
		Sketch:     wr.Sketch,
		Policy:     wr.Policy,
		Model:      wr.Model,
		Answers:    make([]Answer, len(wr.Answers)),
		Robustness: wr.Robustness,
	}
	for i, wa := range wr.Answers {
		resp.Answers[i] = Answer{Kind: wire.KindName(wa.Kind), Value: wa.Value, ErrorBound: wa.ErrorBound, Additive: wa.Additive}
		a := &resp.Answers[i]
		if wa.HasItem {
			item := U64(wa.Item)
			a.Item = &item
		}
		if len(wa.Items) > 0 {
			a.Items = make([]ItemWeight, len(wa.Items))
			for j, iw := range wa.Items {
				a.Items[j] = ItemWeight{Item: U64(iw.Item), Weight: iw.Weight}
			}
		}
	}
	return resp
}

// KeyStats describes one keyspace in GET /v1/stats and in the POST
// /v2/keys and DELETE /v1/keys echoes. SpaceBytes and Robustness come from
// one reading of the engine shards' published records, which may trail
// the ledger's exact Mass by up to the engine's refreshEvery (4096)
// updates per shard.
type KeyStats struct {
	Key        string `json:"key"`
	Sketch     string `json:"sketch"`
	Policy     string `json:"policy"`
	Model      string `json:"model"`
	Shards     int    `json:"shards"`
	SpaceBytes int    `json:"space_bytes"`

	// Mass is the tenant's net signed stream mass Σdelta and DeletedMass
	// the magnitude of its negative side (zero on an insertion-only tenant
	// by construction), both exact as of the last acknowledged batch. They
	// count the stream the tenant applied, restored or was shipped; a
	// /v1/merge carries state, not stream, and moves neither.
	Mass        int64 `json:"mass"`
	DeletedMass int64 `json:"deleted_mass,omitempty"`

	// Spec is the tenant's fully resolved spec — every default applied,
	// every cap enforced — so a client can read back exactly what its
	// tenant was sized from. Seed is withheld (zeroed): publishing it
	// would hand any co-tenant the state-compromise the seed-leak
	// adversary needs.
	Spec *TenantSpec `json:"spec,omitempty"`

	// PointQueries reports whether the tenant answers point and topk
	// queries over POST /v2/query (see QueryPoint).
	PointQueries bool `json:"point_queries,omitempty"`

	// Robustness is the aggregated robustness-budget state of the
	// keyspace's shard estimators; nil for static (policy none) tenants.
	Robustness *RobustnessStats `json:"robustness,omitempty"`
}

// RobustnessStats is the flip-budget state of a robust keyspace; see
// wire.Robustness, which it is.
type RobustnessStats = wire.Robustness

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Keys     int        `json:"keys"`
	MaxKeys  int        `json:"max_keys"`
	Draining bool       `json:"draining"`
	Tenants  []KeyStats `json:"tenants"`
}

// ErrorResponse is the body of every non-2xx reply. An update batch
// answered with one (400, 410, 500, or a draining server's 503) applied
// none of its updates, so a client retrying it resends it whole.
type ErrorResponse struct {
	Error string `json:"error"`
}
