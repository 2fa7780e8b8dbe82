package heavyhitters

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/fp"
	"repro/internal/sketch"
)

// The countsketch golden: one fixed-seed sketch over one fixed signed
// stream that overflows the candidate pool (so it crosses prunes), pinned
// by what an observer sees — a digest of Float64bits(Estimate()) after
// every step, plus Query, TopK and HeavyHitters probes every 50 updates —
// and by the MarshalBinary bytes that cross a wire, a WAL checkpoint or a
// snapshot. The pins were generated at the last commit where CountSketch
// still carried its own counter matrix; no change to the kernel, the pool
// or the codec may edit one.
const (
	goldenCSDigest = "e60acc6a72aa508d"
	goldenCSHex    = "020300000000000000040000000000000010000000000000000400000000000000014fddac228985013ad8af1e1f98a310688e903999a9f8015d1b42256a0c300004000000000000007000000000000000b4feffffffffffff66ffffffffffffffe0ffffffffffffff04000000000000003cf6e1b8ce96ab1a75ce62b567b59916145ecf6b89bced0c56730c27dc95211d0400000000000000c5ffffffffffffff01000000000000000f0000000000000039000000000000000400000000000000a91e6d0bb726671c4907ab06cb3dcf15a89c2477bb74f1116fcef3327de7460f0400000000000000c3ffffffffffffff81000000000000007c000000000000009a000000000000001d000000000000000000000000000000010000000000000002000000000000000300000000000000040000000000000005000000000000000b000000000000000e000000000000001e00000000000000200000000000000021000000000000004d000000000000004f0000000000000071000000000000008f00000000000000af00000000000000bc00000000000000c700000000000000cf00000000000000d900000000000000de00000000000000e400000000000000fd00000000000000fe0000000000000027010000000000003f010000000000004a010000000000005a0100000000000088010000000000001d0000000000000052000000000000005b000000000000007b000000000000008000000000000000480000000000000043000000000000000f0000000000000005000000000000000900000000000000050000000000000015000000000000000400000000000000040000000000000005000000000000000200000000000000040000000000000008000000000000000400000000000000050000000000000004000000000000000100000000000000040000000000000004000000000000000f0000000000000003000000000000001400000000000000fdffffffffffffff0d000000000000000500000000000000"

	// goldenCSV1Hex is a hand-built format-V1 encoding (no retention
	// tallies after the candidate ids): 3 rows × 4 counters, pool cap 16,
	// candidates {2, 5, 9}. It once decoded; V1 is now refused.
	goldenCSV1Hex = "010300000000000000040000000000000010000000000000000400000000000000338282cbe2f96915703144c0aa4ced0156dbd967dc289706846af3bed8a63a0f04000000000000000000000000000000f9ffffffffffffff0300000000000000020000000000000004000000000000008bfbe72b6064281c9604a531f967891390f5319ee029921800d94021fa5052020400000000000000fdfffffffffffffffeffffffffffffff0000000000000000f9ffffffffffffff0400000000000000e2807d9c1dce261fb300ca81d4fe110dc73e8eb6752e1f0ca1d716c61fc24f190400000000000000000000000000000003000000000000000700000000000000feffffffffffffff0300000000000000020000000000000005000000000000000900000000000000"
)

// goldenCSStream is 1200 signed updates over 400 items with a heavy head,
// enough distinct items to push a 16-entry pool past its 2× slack.
func goldenCSStream() []sketch.Update {
	rng := rand.New(rand.NewSource(28))
	out := make([]sketch.Update, 1200)
	for i := range out {
		item := uint64(rng.Intn(400))
		if rng.Intn(2) == 0 {
			item = uint64(rng.Intn(6))
		}
		out[i] = sketch.Update{Item: item, Delta: int64(rng.Intn(9)) - 3}
	}
	return out
}

func TestCountSketchGolden(t *testing.T) {
	cs := NewCountSketch(Sizing{Rows: 3, Width: 4}, rand.New(rand.NewSource(27)))
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	observe := func() { put(math.Float64bits(cs.Estimate())) }
	probe := func() {
		for it := uint64(0); it < 12; it++ {
			put(math.Float64bits(cs.Query(it)))
		}
		for _, iw := range cs.TopK(5) {
			put(iw.Item)
			put(math.Float64bits(iw.Weight))
		}
		for _, it := range cs.HeavyHitters(40) {
			put(it)
		}
	}
	s := goldenCSStream()
	prunes, last := 0, 0
	for i, next := 0, 50; i < len(s); {
		if (i/50)%2 == 0 {
			cs.Update(s[i].Item, s[i].Delta)
			i++
		} else {
			end := min(i+50, len(s))
			cs.UpdateBatch(s[i:end])
			i = end
		}
		observe()
		if i >= next {
			probe()
			next += 50
		}
		if len(cs.cands) < last {
			prunes++
		}
		last = len(cs.cands)
	}
	if prunes == 0 {
		t.Fatal("the golden stream never pruned the candidate pool")
	}
	other := cs.Fresh()
	other.UpdateBatch(s[:100])
	if err := cs.Merge(other); err != nil {
		t.Fatal(err)
	}
	observe()
	probe()
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenCSDigest {
		t.Errorf("observer digest = %s, want %s", got, goldenCSDigest)
	}
	data, err := cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != goldenCSHex {
		t.Errorf("MarshalBinary =\n%s\nwant\n%s", got, goldenCSHex)
	}

	// The pinned bytes decode to the same state and encode back unchanged.
	blob, err := hex.DecodeString(goldenCSHex)
	if err != nil {
		t.Fatal(err)
	}
	var decoded CountSketch
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatalf("golden blob does not decode: %v", err)
	}
	if decoded.Estimate() != cs.Estimate() || !slices.Equal(decoded.TopK(5), cs.TopK(5)) {
		t.Error("decoded golden blob answers differently")
	}
	if again, _ := decoded.MarshalBinary(); hex.EncodeToString(again) != goldenCSHex {
		t.Error("golden blob does not re-encode to itself")
	}
}

func TestCountSketchV1BlobIsRefused(t *testing.T) {
	blob, err := hex.DecodeString(goldenCSV1Hex)
	if err != nil {
		t.Fatal(err)
	}
	var cs CountSketch
	err = cs.UnmarshalBinary(blob)
	if err == nil || !strings.Contains(err.Error(), "unsupported CountSketch format version 1") {
		t.Fatalf("V1 blob: err = %v, want an unsupported-version error", err)
	}
}

// TestCountSketchRowsAreF2: built from one seed at one sizing, a
// CountSketch's counter rows are an F2Sketch — the published F2 estimate
// is bit-equal update for update across single updates, batches and a
// merge, and the space differs by exactly the candidate pool.
func TestCountSketchRowsAreF2(t *testing.T) {
	cs := NewCountSketch(Sizing{Rows: 5, Width: 64}, rand.New(rand.NewSource(9)))
	f := fp.NewF2(fp.F2Sizing{Rows: 5, Width: 64}, rand.New(rand.NewSource(9)))
	same := func(step string, i int) {
		t.Helper()
		if a, b := cs.Estimate(), f.Estimate(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s %d: CountSketch estimates %v, F2Sketch %v", step, i, a, b)
		}
	}
	rng := rand.New(rand.NewSource(10))
	next := func() sketch.Update {
		return sketch.Update{Item: uint64(rng.Intn(3000)), Delta: int64(rng.Intn(21)) - 8}
	}
	for i := 0; i < 5000; i++ {
		u := next()
		cs.Update(u.Item, u.Delta)
		f.Update(u.Item, u.Delta)
		same("update", i)
	}
	batch := make([]sketch.Update, 97)
	for i := 0; i < 50; i++ {
		for j := range batch {
			batch[j] = next()
		}
		cs.UpdateBatch(batch)
		f.UpdateBatch(batch)
		same("batch", i)
	}
	csOther, fOther := cs.Fresh(), f.Fresh()
	for i := 0; i < 2000; i++ {
		u := next()
		csOther.Update(u.Item, u.Delta)
		fOther.Update(u.Item, u.Delta)
	}
	if err := cs.Merge(csOther); err != nil {
		t.Fatal(err)
	}
	if err := f.Merge(fOther); err != nil {
		t.Fatal(err)
	}
	same("merge", 0)
	if got, want := cs.SpaceBytes()-f.SpaceBytes(), 16*len(cs.cands); got != want {
		t.Errorf("CountSketch charges %d bytes beyond its rows, want 16·len(pool) = %d", got, want)
	}
}
