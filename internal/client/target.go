package client

import (
	"context"

	"repro/internal/game"
)

// gameTarget drives one sketchd keyspace over HTTP as the algorithm side
// of the adversarial game: every adversary round becomes one update (a
// POST /v2/update frame under the default binary codec, a POST /v1/update
// under CodecJSON) followed by a GET /v1/estimate, the exact
// query→adapt→update interleaving a shared network endpoint cannot
// prevent. It lives here
// rather than in internal/game because game sits below the server stack
// in the dependency order (the estimator packages' tests import it).
type gameTarget struct {
	ctx context.Context
	c   *Client
	key string
}

// NewGameTarget wraps keyspace key on the sketchd instance behind c as a
// game.Target. The caller declares the keyspace with CreateTenant first;
// the game's first update fails with 404 otherwise.
func NewGameTarget(ctx context.Context, c *Client, key string) game.Target {
	return gameTarget{ctx: ctx, c: c, key: key}
}

func (t gameTarget) Update(item uint64, delta int64) error {
	return t.c.Update(t.ctx, t.key, []Update{{Item: item, Delta: delta}})
}

func (t gameTarget) Estimate() (float64, error) {
	return t.c.Estimate(t.ctx, t.key)
}
