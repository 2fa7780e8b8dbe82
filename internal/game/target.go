package game

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sketch"
)

// Target is a system under adversarial test: anything that ingests stream
// updates and publishes estimates the adversary can observe. The paper's
// game is defined against a bare streaming algorithm; Target widens it to
// the production stack — the sharded ingest engine and a sketchd tenant
// reached over HTTP — so the same adversary.* strategies run full
// query→adapt→update campaigns against exactly what a deployment exposes.
// Ground truth stays on the runner's side of the interface: a Target never
// sees the exact frequency vector it is judged against.
type Target interface {
	// Update ingests f[item] += delta.
	Update(item uint64, delta int64) error

	// Estimate returns the target's current published estimate — the
	// response the adversary observes.
	Estimate() (float64, error)
}

// estimatorTarget adapts a bare sketch.Estimator: the in-process setting
// of the original game.
type estimatorTarget struct {
	est sketch.Estimator
}

// NewEstimatorTarget wraps an in-process estimator (static or robust) as a
// Target. Its operations never fail.
func NewEstimatorTarget(est sketch.Estimator) Target {
	return estimatorTarget{est: est}
}

func (t estimatorTarget) Update(item uint64, delta int64) error {
	t.est.Update(item, delta)
	return nil
}

func (t estimatorTarget) Estimate() (float64, error) {
	return t.est.Estimate(), nil
}

// engineTarget adapts a sharded ingest engine; the adversary's feedback
// is the flushed, combined cross-shard estimate — what engine.Estimate
// serves a caller between updates.
type engineTarget struct {
	eng *engine.Engine
}

// NewEngineTarget wraps an engine.Engine as a Target. The caller keeps
// ownership of the engine (and closes it); updates against a closed engine
// report an error instead of panicking.
func NewEngineTarget(eng *engine.Engine) Target {
	return engineTarget{eng: eng}
}

func (t engineTarget) Update(item uint64, delta int64) error {
	if !t.eng.Apply([]sketch.Update{{Item: item, Delta: delta}}) {
		return fmt.Errorf("game: engine target is closed")
	}
	return nil
}

func (t engineTarget) Estimate() (float64, error) {
	return t.eng.Estimate(), nil
}

// The third Target implementation — a sketchd keyspace driven over HTTP —
// lives in internal/client (client.NewGameTarget): the game package is
// imported by the estimator packages' tests, so it must stay below the
// server stack in the dependency order.
