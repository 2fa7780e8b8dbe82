package heavyhitters

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/sketch"
)

// mapPool is the candidate pool as a map: a tally per item, and past
// 2·candCap items a prune to the candCap first in the entryLess order, read
// off a full sort.
type mapPool struct {
	m       map[uint64]int64
	candCap int
	prunes  int
}

func (r *mapPool) add(item uint64, delta int64) {
	r.m[item] += delta
	if len(r.m) > 2*r.candCap {
		r.prune()
	}
}

func (r *mapPool) prune() {
	r.prunes++
	all := make([]candEntry, 0, len(r.m))
	for it, w := range r.m {
		all = append(all, candEntry{item: it, weight: w})
	}
	sort.Slice(all, func(i, j int) bool { return entryLess(all[i], all[j]) })
	clear(r.m)
	for _, e := range all[:min(r.candCap, len(all))] {
		r.m[e.item] = e.weight
	}
}

// merge is CountSketch.Merge's pool half: the union, summed, pruned once.
func (r *mapPool) merge(o *mapPool) {
	for it, w := range o.m {
		r.m[it] += w
	}
	if len(r.m) > 2*r.candCap {
		r.prune()
	}
}

// samePool fails unless cs's pool holds exactly ref's items and tallies,
// each once and each found through the index at its position, in the
// memory it was reserved with.
func samePool(t *testing.T, step string, cs *CountSketch, ref *mapPool) {
	t.Helper()
	p := &cs.pool
	if len(p.entries) != len(ref.m) {
		t.Fatalf("%s: pool holds %d entries, the map %d", step, len(p.entries), len(ref.m))
	}
	for pos, e := range p.entries {
		if w, ok := ref.m[e.item]; !ok || w != e.weight {
			t.Fatalf("%s: pool has item %d at tally %d, the map %d (held %v)", step, e.item, e.weight, w, ok)
		}
		if got := *p.at(e.item); got != uint32(pos+1) {
			t.Fatalf("%s: item %d at position %d is indexed at %d", step, e.item, pos, int(got)-1)
		}
	}
	filled := 0
	for _, s := range p.index {
		if s != 0 {
			filled++
		}
	}
	if filled != len(p.entries) {
		t.Fatalf("%s: %d index slots filled for %d entries", step, filled, len(p.entries))
	}
	if got, want := p.spaceBytes(), poolBytes(cs.candCap); got != want {
		t.Fatalf("%s: pool holds %d bytes, reserved %d", step, got, want)
	}
}

// TestPoolMatchesMapReference: the flat pool is the map it replaced, item
// for item and tally for tally, over random turnstile streams fed one
// update at a time, in batches and coalesced, through prunes, merges (whose
// unions overflow the reserve), resets and codec round trips.
func TestPoolMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	prunes, spills := 0, 0
	for trial := 0; trial < 40; trial++ {
		sizing := Sizing{Rows: 3, Width: 2 + rng.Intn(6)}
		const seed = 9
		origin := NewCountSketch(sizing, rand.New(rand.NewSource(seed)))
		sks := []*CountSketch{origin.Fresh(), origin.Fresh()}
		refs := []*mapPool{{m: map[uint64]int64{}, candCap: origin.candCap}, {m: map[uint64]int64{}, candCap: origin.candCap}}
		universe := 1 + rng.Intn(12*origin.candCap)
		chunk := func() []sketch.Update {
			b := make([]sketch.Update, rng.Intn(3*origin.candCap))
			for i := range b {
				it := uint64(rng.Intn(universe))
				if rng.Intn(3) == 0 {
					it = uint64(rng.Intn(4)) // a heavy head
				}
				b[i] = sketch.Update{Item: it, Delta: int64(rng.Intn(9)) - 3}
			}
			return b
		}
		var co sketch.Coalescer
		for op := 0; op < 60; op++ {
			j := rng.Intn(2)
			cs, ref := sks[j], refs[j]
			switch rng.Intn(8) {
			case 0, 1:
				for _, u := range chunk() {
					cs.Update(u.Item, u.Delta)
					ref.add(u.Item, u.Delta)
				}
			case 2, 3:
				b := chunk()
				cs.UpdateBatch(b)
				for _, u := range b {
					ref.add(u.Item, u.Delta)
				}
			case 4:
				b := chunk()
				cs.UpdateCoalesced(co.Coalesce(nil, b), b)
				for _, u := range b {
					ref.add(u.Item, u.Delta)
				}
			case 5:
				other, oref := sks[1-j], refs[1-j]
				if len(ref.m)+len(oref.m) > 2*cs.candCap+1 {
					spills++
				}
				if err := cs.Merge(other); err != nil {
					t.Fatal(err)
				}
				ref.merge(oref)
			case 6:
				cs.Reset(rand.New(rand.NewSource(seed))) // the origin's randomness, so merges still hold
				clear(ref.m)
			case 7:
				data, err := cs.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var decoded CountSketch
				if err := decoded.UnmarshalBinary(data); err != nil {
					t.Fatalf("trial %d op %d: %v", trial, op, err)
				}
				if again, _ := decoded.MarshalBinary(); !bytes.Equal(again, data) {
					t.Fatalf("trial %d op %d: a decoded sketch encodes differently", trial, op)
				}
				sks[j] = &decoded
				cs = &decoded
			}
			samePool(t, fmt.Sprintf("trial %d op %d", trial, op), cs, ref)
		}
		prunes += refs[0].prunes + refs[1].prunes
	}
	if prunes < 200 {
		t.Errorf("only %d prunes, want at least 200", prunes)
	}
	if spills < 20 {
		t.Errorf("only %d merges overflowed the reserve, want at least 20", spills)
	}
}

// withPool is an encoding of cs with its header's candidate cap and its
// pool replaced: what a client could send /v1/merge.
func withPool(cs *CountSketch, candCap int, items []uint64) []byte {
	var w codec.Writer
	w.U8(csFormatV2)
	dims := cs.kernel.Dims()
	w.U64(uint64(dims.Rows))
	w.U64(uint64(dims.Width))
	w.U64(uint64(candCap))
	cs.kernel.AppendRows(&w, (*codec.Writer).I64s)
	w.U64s(items)
	w.I64s(make([]int64, len(items)))
	return w.Bytes()
}

// badPools are encodings the decoder must refuse before it reserves a
// pool: a candidate cap other than 4·width (a huge one would size the
// reservation), a pool longer than twice the cap, and ids out of order.
func badPools() map[string][]byte {
	cs := NewCountSketch(Sizing{Rows: 3, Width: 8}, rand.New(rand.NewSource(1)))
	ids := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(i)
		}
		return out
	}
	return map[string][]byte{
		"cap 4·width + 1":   withPool(cs, 33, nil),
		"cap 2⁴⁰":           withPool(cs, 1<<40, nil),
		"pool 2·cap + 1":    withPool(cs, 32, ids(65)),
		"ids out of order":  withPool(cs, 32, []uint64{1, 3, 2}),
		"ids repeated":      withPool(cs, 32, []uint64{1, 1}),
		"pool 2·cap (fine)": withPool(cs, 32, ids(64)),
	}
}

// TestUnmarshalRefusesBadPools: each bad pool is refused, naming what is
// wrong; the largest pool a sketch can hold at rest still decodes.
func TestUnmarshalRefusesBadPools(t *testing.T) {
	for name, data := range badPools() {
		var cs CountSketch
		err := cs.UnmarshalBinary(data)
		if strings.HasSuffix(name, "(fine)") {
			if err != nil || len(cs.pool.entries) != 64 {
				t.Errorf("%s: err %v, %d candidates", name, err, len(cs.pool.entries))
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "candidate") {
			t.Errorf("%s: err = %v, want a refusal naming the candidates", name, err)
		}
	}
}

// TestCountSketchWeighsWhatItDeclares: a CountSketch keeps no map, and
// every slice it holds but Query's row scratch is its pool as SpaceBytes
// charges it, after prunes, a merge and the reads: a pool-sized scratch
// kept beside the pool would be carried by each of a Theorem 6.5 ring's
// copies uncharged.
func TestCountSketchWeighsWhatItDeclares(t *testing.T) {
	cs := NewCountSketch(Sizing{Rows: 5, Width: 64}, rand.New(rand.NewSource(3)))
	other := cs.Fresh()
	for i := uint64(0); i < 20000; i++ {
		cs.Update(i%3000, int64(1+i%5))
		other.Update(i*7919%5000, 1)
	}
	if err := cs.Merge(other); err != nil {
		t.Fatal(err)
	}
	cs.TopK(10)
	cs.HeavyHitters(1)
	cs.Query(1)
	held := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Map:
			t.Errorf("CountSketch%s is a map", path)
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			if path != ".qbuf" {
				held += v.Cap() * int(v.Type().Elem().Size())
			}
		}
	}
	walk(reflect.ValueOf(cs).Elem(), "")
	if charged := cs.SpaceBytes() - cs.kernel.SpaceBytes(); held != charged {
		t.Errorf("CountSketch holds %d bytes of slices beside its kernel and Query scratch, charges %d", held, charged)
	}
}
