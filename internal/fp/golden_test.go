package fp

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sketch"
)

// The f2 golden: one fixed-seed sketch over one fixed signed stream,
// pinned by what an observer sees (a digest of Float64bits(Estimate())
// after every single update, every batch and a merge) and by what crosses
// a wire, a WAL checkpoint or a snapshot (the MarshalBinary bytes). Both
// pins were generated at the last commit where F2Sketch still stored
// float64 counters; no change to the kernel may edit either.
const (
	goldenF2Digest = "a79c5b9469a5c433"
	goldenF2Hex    = "0103000000000000000800000000000000040000000000000080c385e2a9f469035a700717777c4b0081cd2cc67bbd26123514a5aab010b00908000000000000000000000000002c40000000000000184000000000000041400000000000c0544000000000000038400000000000804440000000000000414000000000008050c004000000000000002e0acd27e8745c1a9e486a9d544c6409c7e3ebc9ac67eb108404e33431ee6b0b08000000000000000000000000c056400000000000004340000000000000354000000000000055c00000000000003cc00000000000001c4000000000000031c000000000008050c00400000000000000ff35cb9f30cdd70fcb47ee59e2382f058c7f7f172d6b010bd04a758375719e0a08000000000000000000000000001cc00000000000003d400000000000c051400000000000004540000000000000084000000000000042c00000000000805d4000000000000028c0"
)

// goldenF2Stream is 600 signed updates over 64 items, skewed so buckets
// collide and cancel.
func goldenF2Stream() []sketch.Update {
	rng := rand.New(rand.NewSource(18))
	out := make([]sketch.Update, 600)
	for i := range out {
		item := uint64(rng.Intn(64))
		if rng.Intn(3) == 0 {
			item = uint64(rng.Intn(4))
		}
		out[i] = sketch.Update{Item: item, Delta: int64(rng.Intn(9)) - 3}
	}
	return out
}

// runGoldenF2 drives the golden stream — alternating runs of 64 single
// updates and one 64-update batch — then folds in a Fresh copy fed the
// first 100 updates again, digesting the estimate after every step.
func runGoldenF2(t *testing.T) (*F2Sketch, string) {
	t.Helper()
	f := NewF2(F2Sizing{Rows: 3, Width: 8}, rand.New(rand.NewSource(17)))
	h := fnv.New64a()
	var word [8]byte
	observe := func() {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(f.Estimate()))
		h.Write(word[:])
	}
	s := goldenF2Stream()
	for i := 0; i < len(s); {
		if (i/64)%2 == 0 {
			f.Update(s[i].Item, s[i].Delta)
			i++
		} else {
			end := min(i+64, len(s))
			f.UpdateBatch(s[i:end])
			i = end
		}
		observe()
	}
	other := f.Fresh()
	other.UpdateBatch(s[:100])
	if err := f.Merge(other); err != nil {
		t.Fatal(err)
	}
	observe()
	return f, fmt.Sprintf("%016x", h.Sum64())
}

func TestF2Golden(t *testing.T) {
	f, digest := runGoldenF2(t)
	if digest != goldenF2Digest {
		t.Errorf("estimate digest = %s, want %s", digest, goldenF2Digest)
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != goldenF2Hex {
		t.Errorf("MarshalBinary =\n%s\nwant\n%s", got, goldenF2Hex)
	}

	// The pinned bytes decode to the same state and encode back unchanged.
	blob, err := hex.DecodeString(goldenF2Hex)
	if err != nil {
		t.Fatal(err)
	}
	var decoded F2Sketch
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatalf("golden blob does not decode: %v", err)
	}
	if decoded.Estimate() != f.Estimate() {
		t.Errorf("decoded estimate %v, want %v", decoded.Estimate(), f.Estimate())
	}
	if again, _ := decoded.MarshalBinary(); hex.EncodeToString(again) != goldenF2Hex {
		t.Error("golden blob does not re-encode to itself")
	}
}
