package robust

import (
	"fmt"

	"repro/internal/prf"
	"repro/internal/sketch"
)

// MappedF0 is the Section 10 wrapper (Theorem 10.1): every stream item is
// passed through a keyed item mapping before it reaches a
// duplicate-insensitive F0 sketch. Re-inserting a seen item provably does
// not change the state (duplicate-insensitivity), and a new item's hash
// behavior is unpredictable even if the inner sketch's own hash function
// is public, so adaptivity buys nothing. The two constructors differ only
// in the mapping and in what the model charges for it.
type MappedF0 struct {
	mapItem  func(uint64) uint64
	mapBytes int // the mapping's charged storage
	inner    sketch.Estimator
}

func newMappedF0(name string, mapItem func(uint64) uint64, mapBytes int, inner sketch.Estimator) (*MappedF0, error) {
	di, ok := inner.(sketch.DuplicateInsensitive)
	if !ok || !di.DuplicateInsensitive() {
		return nil, fmt.Errorf("robust: %s requires a duplicate-insensitive inner sketch, got %T", name, inner)
	}
	return &MappedF0{mapItem: mapItem, mapBytes: mapBytes, inner: inner}, nil
}

// NewCryptoF0 is the cryptographically robust distinct-elements estimator
// (second part of Theorem 10.1): the mapping is an AES-based pseudorandom
// function, whose outputs a polynomial-time adversary cannot tell from
// fresh random identities. The extra space over the static sketch is one
// AES key schedule — the essentially-free robustification of the theorem.
// inner must declare duplicate-insensitivity (sketch.DuplicateInsensitive);
// KMV-based estimators from internal/f0 do.
func NewCryptoF0(p *prf.PRF, inner sketch.Estimator) (*MappedF0, error) {
	return newMappedF0("CryptoF0", p.Eval64, p.SpaceBytes(), inner)
}

// NewOracleF0 is the random-oracle variant (Theorem 1.3, first part of
// Theorem 10.1): the mapping is served by a random oracle, whose storage
// the random-oracle model does not charge — so the robust algorithm costs
// exactly the static sketch's space. inner must be duplicate-insensitive,
// as in NewCryptoF0.
func NewOracleF0(o *prf.Oracle, inner sketch.Estimator) (*MappedF0, error) {
	return newMappedF0("OracleF0", o.Query, o.SpaceBytes(), inner)
}

// Update maps the item and feeds the inner sketch.
func (c *MappedF0) Update(item uint64, delta int64) { c.inner.Update(c.mapItem(item), delta) }

// Estimate returns the inner sketch's distinct-count estimate (the mapping
// is injective up to negligible truncation collisions, so distinct counts
// are preserved).
func (c *MappedF0) Estimate() float64 { return c.inner.Estimate() }

// SpaceBytes charges the inner sketch plus the mapping's charged storage.
func (c *MappedF0) SpaceBytes() int { return c.inner.SpaceBytes() + c.mapBytes }
