package wire

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/codec"
)

// Golden frames: one hex literal per frame shape, produced by running this
// test at a1c7373 — the last commit whose decoders threaded offsets by hand
// instead of reading through codec.Reader. Every Append* must reproduce the
// bytes and every Decode* must return the value, so the format cannot drift
// while the code that reads it is rewritten.
var goldenFrames = []struct {
	name  string
	hex   string
	value any
	goldenCodec
}{
	{
		name: "updates",
		hex:  "534b01014300000006000000000000000000010000000000000002ffffffffffffffff0107000000000000009b85e30b2a00000000000000000000000000002000feffffffffffffffff01",
		value: []Update{
			{Item: 0, Delta: 0}, {Item: 1, Delta: 1}, {Item: math.MaxUint64, Delta: -1},
			{Item: 7, Delta: -12345678}, {Item: 42, Delta: 0}, {Item: 1 << 53, Delta: math.MaxInt64},
		},
		goldenCodec: updatesCodec,
	},
	{
		name: "query/all-kinds",
		hex:  "534b0102200000000874656e616e742d61040102ffffffffffffffff03ac02020000000000000000",
		value: &QueryRequest{Key: "tenant-a", Queries: []Query{
			{Kind: KindEstimate}, {Kind: KindPoint, Item: math.MaxUint64}, {Kind: KindTopK, K: 300}, {Kind: KindPoint, Item: 0},
		}},
		goldenCodec: queryCodec,
	},
	{
		name: "answer/robust-topk",
		hex:  "534b01038b000000016b0b636f756e74736b657463680472696e6709696e73657274696f6e0301020000000000e05e409a9999999999b93f00020100000000000000100000000000001cc00000000000000440000300000000000000000000000000000004400203000000000000000000000000002340000000000000001000000000000000c0010472696e670cac02010100",
		value: &QueryResponse{
			Key: "k", Sketch: "countsketch", Policy: "ring", Model: "insertion",
			Answers: []Answer{
				{Kind: KindEstimate, Value: 123.5, ErrorBound: 0.1, Additive: true},
				{Kind: KindPoint, HasItem: true, Item: 1 << 60, Value: -7, ErrorBound: 2.5},
				{Kind: KindTopK, Items: []ItemWeight{{Item: 3, Weight: 9.5}, {Item: 1 << 60, Weight: -2}}, ErrorBound: 2.5},
			},
			Robustness: &Robustness{Policy: "ring", Copies: 12, Switches: 300, Budget: -1, Remaining: -1},
		},
		goldenCodec: answerCodec,
	},
	{
		name: "answer/static",
		hex:  "534b01032f00000006737461746963036b6d76046e6f6e65097475726e7374696c65010100000000000000b0409a9999999999a93f0000",
		value: &QueryResponse{
			Key: "static", Sketch: "kmv", Policy: "none", Model: "turnstile",
			Answers: []Answer{{Kind: KindEstimate, Value: 4096, ErrorBound: 0.05}},
		},
		goldenCodec: answerCodec,
	},
	{
		name: "answer/exhausted-budget",
		hex:  "534b010331000000017202663209737769746368696e6710626f756e6465645f64656c6574696f6e000109737769746368696e670403060001",
		value: &QueryResponse{
			Key: "r", Sketch: "f2", Policy: "switching", Model: "bounded_deletion",
			Answers:    []Answer{},
			Robustness: &Robustness{Policy: "switching", Copies: 4, Switches: 3, Budget: 3, Remaining: 0, Exhausted: true},
		},
		goldenCodec: answerCodec,
	},
	{
		name: "ship/with-state",
		hex:  "534b0104440000000e3132372e302e302e313a3930303105616c706861070000000000000080890f9b01011a7b22736b65746368223a226632222c22736861726473223a347d0502deadbeef",
		value: &Ship{
			From: "127.0.0.1:9001", Key: "alpha", Seq: 7, Mass: 123456, Deleted: -78,
			Spec: []byte(`{"sketch":"f2","shards":4}`), State: []byte{2, 0xde, 0xad, 0xbe, 0xef},
		},
		goldenCodec: shipCodec,
	},
	{
		name:        "ship/spec-only",
		hex:         "534b01043e0000000010737065632d6f6e6c792d726f627573740100000000000000000000207b22736b65746368223a226632222c22706f6c696379223a227061746873227d",
		value:       &Ship{Key: "spec-only-robust", Seq: 1, Spec: []byte(`{"sketch":"f2","policy":"paths"}`)},
		goldenCodec: shipCodec,
	},
	{
		name:        "ship/empty-state",
		hex:         "534b01041d000000016e0b656d7074792d73746174650200000000000000000001027b7d00",
		value:       &Ship{From: "n", Key: "empty-state", Seq: 2, Spec: []byte(`{}`), State: []byte{}},
		goldenCodec: shipCodec,
	},
	{
		name:        "ship-ack/applied",
		hex:         "534b01051000000005616c70686100000000000100000100",
		value:       &ShipAck{Key: "alpha", Seq: 1 << 40, Applied: true},
		goldenCodec: shipAckCodec,
	},
	{
		name:        "ship-ack/refused",
		hex:         "534b010536000000046265746109000000000000000027736869706d656e7420726566757365643a207265636569766572206f776e7320746865206b6579",
		value:       &ShipAck{Key: "beta", Seq: 9, Err: "shipment refused: receiver owns the key"},
		goldenCodec: shipAckCodec,
	},
	{
		name: "route",
		hex:  "534b01062c00000003613a310303613a3104000000000000000003623a320b000000000000000103633a33000000000000000000",
		value: &RouteTable{From: "a:1", Entries: []RouteEntry{
			{Addr: "a:1", Seq: 4}, {Addr: "b:2", Seq: 11, Draining: true}, {Addr: "c:3"},
		}},
		goldenCodec: routeCodec,
	},
}

// goldenCodec is one frame type's Append*/Decode* pair behind a common shape.
type goldenCodec struct {
	encode func(v any) []byte
	decode func(frame []byte) (any, error)
}

var (
	updatesCodec = goldenCodec{
		encode: func(v any) []byte { return AppendUpdates(nil, v.([]Update)) },
		decode: func(f []byte) (any, error) { return DecodeUpdates(f, nil) },
	}
	queryCodec = goldenCodec{
		encode: func(v any) []byte { return AppendQuery(nil, v.(*QueryRequest)) },
		decode: func(f []byte) (any, error) {
			req := &QueryRequest{}
			return req, DecodeQuery(f, req)
		},
	}
	answerCodec = goldenCodec{
		encode: func(v any) []byte { return AppendAnswer(nil, v.(*QueryResponse)) },
		decode: func(f []byte) (any, error) { return DecodeAnswer(f) },
	}
	shipCodec = goldenCodec{
		encode: func(v any) []byte { return AppendShip(nil, v.(*Ship)) },
		decode: func(f []byte) (any, error) {
			sh := &Ship{}
			return sh, DecodeShip(f, sh)
		},
	}
	shipAckCodec = goldenCodec{
		encode: func(v any) []byte { return AppendShipAck(nil, v.(*ShipAck)) },
		decode: func(f []byte) (any, error) {
			ack := &ShipAck{}
			return ack, DecodeShipAck(f, ack)
		},
	}
	routeCodec = goldenCodec{
		encode: func(v any) []byte { return AppendRoute(nil, v.(*RouteTable)) },
		decode: func(f []byte) (any, error) {
			rt := &RouteTable{}
			return rt, DecodeRoute(f, rt)
		},
	}
)

func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad hex literal: %v", g.name, err)
		}
		if got := g.encode(g.value); hex.EncodeToString(got) != g.hex {
			t.Errorf("%s: encoder drifted\n got %x\nwant %s", g.name, got, g.hex)
		}
		got, err := g.decode(want)
		if err != nil {
			t.Errorf("%s: golden frame rejected: %v", g.name, err)
			continue
		}
		if !reflect.DeepEqual(got, g.value) {
			t.Errorf("%s: decoded %+v, want %+v", g.name, got, g.value)
		}
	}
}

// unzigzag is the decode half of zigzag as the decoders see it:
// codec.Reader.Varint over the uvarint encoding.
func unzigzag(u uint64) int64 {
	r := codec.NewReader(binary.AppendUvarint(nil, u))
	return r.Varint()
}

// TestDecodeUpdatesZeroAlloc pins the ingest spine's decode step at zero
// allocations into a reused slice. It fails if the codec.Reader a decoder
// works through ever escapes to the heap (a reader returned by pointer
// from a helper does).
func TestDecodeUpdatesZeroAlloc(t *testing.T) {
	us := make([]Update, 512)
	for i := range us {
		us[i] = Update{Item: uint64(i) * 0x9e3779b97f4a7c15, Delta: int64(i%7) - 3}
	}
	frame := AppendUpdates(nil, us)
	dst := make([]Update, 0, len(us))
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if dst, err = DecodeUpdates(frame, dst); err != nil || len(dst) != len(us) {
			t.Fatalf("decode: %v (%d updates)", err, len(dst))
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeUpdates allocates %.0f times per batch, want 0", allocs)
	}
}

// TestDecodeAnswerBoundsAllocationByPayload: a declared answer count is
// checked against what the payload can hold — 19 bytes per answer (kind,
// flags, value, error bound, item count) — before anything is reserved
// for it. A 1 MiB frame of zeros that promises 2^20 answers must cost the
// client a rejection, not 2^20 × sizeof(Answer) = 64 MiB (and a 64 MiB
// frame not 4 GiB).
func TestDecodeAnswerBoundsAllocationByPayload(t *testing.T) {
	const declared = 1 << 20
	frame, hdr := beginFrame(make([]byte, 0, HeaderSize+8+declared), FrameAnswer)
	for i := 0; i < 4; i++ {
		frame = appendString(frame, "")
	}
	frame = appendUvarint(frame, declared)
	frame = endFrame(frame[:len(frame)+declared], hdr)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeAnswer(frame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-declared answer count: err = %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("rejecting a frame that declares %d answers allocated %d bytes, want < 64 KiB", declared, got)
	}
}
