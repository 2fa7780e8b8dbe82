package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// coalesceByMap is the map-indexed routine the flat index replaced: the
// oracle for order, net deltas and zero-sum entries.
func coalesceByMap(dst, b []Update) []Update {
	idx := make(map[uint64]int, len(b))
	for _, u := range b {
		if j, ok := idx[u.Item]; ok {
			dst[j].Delta += u.Delta
		} else {
			idx[u.Item] = len(dst)
			dst = append(dst, u)
		}
	}
	return dst
}

// checkCoalesce runs one call through co, into a fresh buffer or in place,
// and fails unless it matches the map oracle.
func checkCoalesce(t *testing.T, what string, co *Coalescer, b []Update, inPlace bool) {
	t.Helper()
	want := coalesceByMap(nil, b)
	in := slices.Clone(b)
	var dst []Update
	if inPlace {
		dst = in[:0]
	}
	if got := co.Coalesce(dst, in); !slices.Equal(got, want) {
		t.Fatalf("%s (%d updates, in place %v): coalesced to %d entries %v…, want %d %v…",
			what, len(b), inPlace, len(got), got[:min(len(got), 6)], len(want), want[:min(len(want), 6)])
	}
}

// TestCoalescerMatchesMap holds the flat index to the map it replaced over
// the call sequences a long-lived owner makes: random batches of every
// shape, in place and not, a small call after a 16 384-update one, items
// that share their low bits (multiples of 2²⁰ and of the table size), and
// a generation stamp that wraps.
func TestCoalescerMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	batch := func(n, distinct int, items func(int) uint64) []Update {
		b := make([]Update, n)
		for i := range b {
			b[i] = Update{Item: items(rng.Intn(distinct)), Delta: rng.Int63n(7) - 3}
		}
		return b
	}
	plain := func(i int) uint64 { return uint64(i) }
	for _, c := range []struct {
		name  string
		calls [][]Update
	}{
		{"empty and single", [][]Update{nil, batch(1, 1, plain), {}, batch(2, 1, plain)}},
		{"random", [][]Update{batch(150, 40, plain), batch(256, 256, plain), batch(3000, 500, plain), batch(700, 10000, plain)}},
		{"small after large", [][]Update{batch(16384, 4000, plain), batch(150, 60, plain), batch(16384, 16384, plain), batch(3, 2, plain), batch(150, 150, plain)}},
		{"multiples of 2^20", [][]Update{batch(4096, 3000, func(i int) uint64 { return uint64(i) << 20 }), batch(150, 100, func(i int) uint64 { return uint64(i) << 20 })}},
		{"multiples of the table size", [][]Update{batch(512, 300, func(i int) uint64 { return uint64(i) * 1024 }), batch(4096, 4096, func(i int) uint64 { return uint64(i) << 13 })}},
		{"extreme items", [][]Update{batch(300, 200, func(i int) uint64 { return math.MaxUint64 - uint64(i) }), batch(300, 200, func(i int) uint64 { return uint64(i) << 54 })}},
	} {
		for _, inPlace := range []bool{false, true} {
			var co Coalescer
			for i, b := range c.calls {
				checkCoalesce(t, fmt.Sprintf("%s, call %d", c.name, i), &co, b, inPlace)
			}
		}
	}

	// The stamp wraps: slots a call filled at stamp 1 must not read as
	// live when the counter comes round to 1 again.
	var co Coalescer
	checkCoalesce(t, "before the wrap", &co, batch(2000, 500, plain), false)
	co.gen = math.MaxUint32
	checkCoalesce(t, "at the wrap", &co, batch(2000, 500, plain), true)
	if co.gen != 1 {
		t.Fatalf("after the wrap the stamp is %d, want 1", co.gen)
	}
	checkCoalesce(t, "after the wrap", &co, batch(100, 50, plain), false)
}

// TestCoalescerSpace: the index is charged as allocated, the least power of
// two at least twice the largest batch met, and a smaller call after a
// larger one allocates nothing.
func TestCoalescerSpace(t *testing.T) {
	var co Coalescer
	if co.SpaceBytes() != 0 {
		t.Fatalf("an unused coalescer declares %d bytes", co.SpaceBytes())
	}
	big := make([]Update, 16384)
	for i := range big {
		big[i] = Update{Item: uint64(i % 5000), Delta: 1}
	}
	dst := make([]Update, 0, len(big))
	co.Coalesce(dst, big)
	if want := 16 * 32768; co.SpaceBytes() != want {
		t.Fatalf("after a 16 384-update call the index declares %d bytes, want %d", co.SpaceBytes(), want)
	}
	if allocs := testing.AllocsPerRun(10, func() { co.Coalesce(dst[:0], big[:150]) }); allocs != 0 {
		t.Fatalf("a small call after a large one allocates %v times", allocs)
	}

	var reserved Coalescer
	reserved.Reserve(256)
	if want := 16 * 512; reserved.SpaceBytes() != want {
		t.Fatalf("reserved for 256 updates the index declares %d bytes, want %d", reserved.SpaceBytes(), want)
	}
	if allocs := testing.AllocsPerRun(10, func() { reserved.Coalesce(dst[:0], big[:256]) }); allocs != 0 {
		t.Fatalf("a call within the reservation allocates %v times", allocs)
	}
}

// FuzzCoalesce decodes the input as (item, delta) pairs over a small item
// alphabet stretched across the word, and holds two calls on one Coalescer
// — the second in place — to the map oracle.
func FuzzCoalesce(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1, 2}, uint8(20), uint8(3))
	f.Add(make([]byte, 64), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8, split uint8) {
		var b []Update
		for ; len(data) >= 3; data = data[3:] {
			item := uint64(binary.LittleEndian.Uint16(data)) << (shift % 49)
			b = append(b, Update{Item: item, Delta: int64(int8(data[2]))})
		}
		cut := int(split) % (len(b) + 1)
		var co Coalescer
		checkCoalesce(t, "first call", &co, b[cut:], false)
		checkCoalesce(t, "second call", &co, b[:cut], true)
	})
}

// BenchmarkCoalesce prices one call on a Zipf(1.2) batch, ns/update per
// input update: cold engine parts of 150 and 256 updates (the coalescer
// has met no larger batch), a 150-update catch-up on a coalescer that has
// already coalesced a 16 384-update lag buffer, and that buffer.
func BenchmarkCoalesce(b *testing.B) {
	z := rand.NewZipf(rand.New(rand.NewSource(2)), 1.2, 1, 1<<20)
	zipf := func(n int) []Update {
		u := make([]Update, n)
		for i := range u {
			u[i] = Update{Item: z.Uint64(), Delta: 1}
		}
		return u
	}
	for _, c := range []struct {
		name  string
		prior int // the largest batch the coalescer met before
		n     int
	}{{"part=150", 0, 150}, {"part=256", 0, 256}, {"after16384/150", 16384, 150}, {"lag=16384", 0, 16384}} {
		b.Run(c.name, func(b *testing.B) {
			var co Coalescer
			dst := make([]Update, 0, max(c.n, c.prior))
			co.Coalesce(dst, zipf(c.prior))
			in := zipf(c.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				co.Coalesce(dst[:0], in)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.n), "ns/update")
		})
	}
}
