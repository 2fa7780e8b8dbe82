package f0

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

// The kmv golden: fixed-seed sketches over one fixed Zipf stream, pinned by
// what an observer sees — an FNV-64a digest of Float64bits(Estimate()) at
// every point the feeding mode lets an estimate be read — and by what
// crosses a wire, a WAL checkpoint or a snapshot. The digests and the
// heap-order blob were generated at the last commit where every KMV
// carried its membership map from birth and MarshalBinary wrote the heap
// in array order; no change to how a KMV is fed or stored may edit them.
// A KMV's state is the k smallest distinct hash values seen, whatever the
// order they arrived in, so every feeding mode must observe the same
// estimates wherever it observes at all.

// goldenKMVStream is 20 000 Zipf(1.2) draws over 2^20 items: skewed enough
// that most of a batch repeats, long enough to fill every sketch below and
// to cross several 5 000-update batches.
func goldenKMVStream() []sketch.Update {
	rng := rand.New(rand.NewSource(29))
	z := rand.NewZipf(rng, 1.2, 1, 1<<20)
	out := make([]sketch.Update, 20000)
	for i := range out {
		out[i] = sketch.Update{Item: z.Uint64(), Delta: 1}
	}
	return out
}

// goldenFeeds are the feeding modes: how many updates go in before the
// next observation, as a repeating pattern; 0 is one Update call, n > 0
// one UpdateBatch of n.
var goldenFeeds = []struct {
	name    string
	pattern []int
}{
	{"update", []int{0}},
	{"batch1", []int{1}},
	{"batch7", []int{7}},
	{"batch512", []int{512}},
	{"batch5000", []int{5000}},
	{"alternating", []int{0, 0, 0, 7, 0, 512, 1, 0, 5000, 0, 0}},
}

var goldenKMVDigests = map[string]string{
	"kmv/update":         "a03a89dbf0836639",
	"kmv/batch1":         "a03a89dbf0836639",
	"kmv/batch7":         "e8d5881a5ab1ca80",
	"kmv/batch512":       "fecfad5feb3ee3cd",
	"kmv/batch5000":      "847563a8f54d09d2",
	"kmv/alternating":    "d957b297963732bc",
	"median/update":      "94a4b6d863742fe9",
	"median/batch1":      "94a4b6d863742fe9",
	"median/batch7":      "1e9ab9a15fbc8af7",
	"median/batch512":    "e6c5a6cbebd4d2a3",
	"median/batch5000":   "2ba03c535b936121",
	"median/alternating": "2c68b5e4b938eda0",
}

// feedDigest drives s over updates in the given pattern and digests the
// estimate after every call.
func feedDigest(s sketch.Estimator, updates []sketch.Update, pattern []int) string {
	h := fnv.New64a()
	var word [8]byte
	for i, step := 0, 0; i < len(updates); step++ {
		if n := pattern[step%len(pattern)]; n == 0 {
			s.Update(updates[i].Item, updates[i].Delta)
			i++
		} else {
			end := min(i+n, len(updates))
			s.(sketch.BatchUpdater).UpdateBatch(updates[i:end])
			i = end
		}
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(s.Estimate()))
		h.Write(word[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestKMVGolden(t *testing.T) {
	updates := goldenKMVStream()
	build := map[string]func() sketch.Estimator{
		// k = 1 200 fills at update 3 991: after seven 512-update batches,
		// inside the first 5 000-update one.
		"kmv": func() sketch.Estimator { return NewKMV(1200, rand.New(rand.NewSource(41))) },
		"median": func() sketch.Estimator {
			return NewMedian(5, 43, func(seed int64) sketch.Estimator {
				return NewKMV(48, rand.New(rand.NewSource(seed)))
			})
		},
	}
	for _, kind := range []string{"kmv", "median"} {
		for _, feed := range goldenFeeds {
			name := kind + "/" + feed.name
			if got := feedDigest(build[kind](), updates, feed.pattern); got != goldenKMVDigests[name] {
				t.Errorf("%s: estimate digest = %s, want %s", name, got, goldenKMVDigests[name])
			}
		}
		// A one-update batch is an update: same observations, same digest.
		if goldenKMVDigests[kind+"/batch1"] != goldenKMVDigests[kind+"/update"] {
			t.Errorf("%s: the batch1 and update pins differ", kind)
		}
	}
}

// goldenKMVHeapBlob is MarshalBinary of NewKMV(16, seed 47) after the first
// 400 golden updates as the map-carrying KMV wrote it: the minima in
// max-heap array order, an accident of arrival order. Stored checkpoints
// and peers on that build hold blobs like it, so it must keep decoding.
// goldenKMVEncoded is what MarshalBinary writes for that same state — the
// same sixteen minima descending, the one pin that moved (it was the heap
// blob) when a KMV stopped carrying its map — and goldenKMVTailDigest the
// per-update digest of the remaining 19 600 updates, whichever way the
// state got there.
const (
	goldenKMVHeapBlob   = "01100000000000000002000000000000009b595b46fca5951d8fadec518fdc710c10000000000000005f96c5febdbdec024a62213caa3beb02550ec160bf254f026378b61fa0c44e011672d418849f4a02e9ce2a703c9f3301d49a86ad281d320167070400b3ab3c013d9fbb7a8ba739014bf6c81f2cc37601d6ff25d7f1d60f0017c6c0d5768a24012cfa64988a0c260180caf5a2d9142c015662ad1db2102901412e095b9e8e2701"
	goldenKMVEncoded    = "01100000000000000002000000000000009b595b46fca5951d8fadec518fdc710c10000000000000005f96c5febdbdec024a62213caa3beb02550ec160bf254f021672d418849f4a024bf6c81f2cc376016378b61fa0c44e0167070400b3ab3c013d9fbb7a8ba73901e9ce2a703c9f3301d49a86ad281d320180caf5a2d9142c015662ad1db2102901412e095b9e8e27012cfa64988a0c260117c6c0d5768a2401d6ff25d7f1d60f00"
	goldenKMVTailDigest = "518f4fbf84ebd682"
	goldenKMVBlobAt     = 400
)

func TestKMVGoldenBlob(t *testing.T) {
	updates := goldenKMVStream()
	live := NewKMV(16, rand.New(rand.NewSource(47)))
	live.UpdateBatch(updates[:goldenKMVBlobAt])
	data, err := live.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != goldenKMVEncoded {
		t.Errorf("MarshalBinary =\n%s\nwant\n%s", got, goldenKMVEncoded)
	}

	for name, blobHex := range map[string]string{"heap-order": goldenKMVHeapBlob, "encoded": goldenKMVEncoded} {
		blob, err := hex.DecodeString(blobHex)
		if err != nil {
			t.Fatal(err)
		}
		var decoded KMV
		if err := decoded.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%s blob does not decode: %v", name, err)
		}
		if decoded.Estimate() != live.Estimate() {
			t.Errorf("%s blob: decoded estimate %v, want %v", name, decoded.Estimate(), live.Estimate())
		}
		if again, _ := decoded.MarshalBinary(); hex.EncodeToString(again) != goldenKMVEncoded {
			t.Errorf("%s blob does not re-encode to the canonical bytes", name)
		}
		if got := feedDigest(&decoded, updates[goldenKMVBlobAt:], []int{0}); got != goldenKMVTailDigest {
			t.Errorf("%s blob: continuation digest = %s, want %s", name, got, goldenKMVTailDigest)
		}
	}
	if got := feedDigest(live, updates[goldenKMVBlobAt:], []int{0}); got != goldenKMVTailDigest {
		t.Errorf("undecoded sketch: continuation digest = %s, want %s", got, goldenKMVTailDigest)
	}
}
