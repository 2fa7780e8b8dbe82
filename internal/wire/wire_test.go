package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestUpdatesRoundTrip(t *testing.T) {
	us := []Update{
		{Item: 0, Delta: 0},
		{Item: 1, Delta: 1},
		{Item: math.MaxUint64, Delta: math.MaxInt64},
		{Item: 1 << 53, Delta: math.MinInt64},
		{Item: 42, Delta: -1},
		{Item: 7, Delta: -12345678},
	}
	frame := AppendUpdates(nil, us)
	if ft, err := Type(frame); err != nil || ft != FrameUpdates {
		t.Fatalf("Type = %v, %v", ft, err)
	}
	got, err := DecodeUpdates(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(us) {
		t.Fatalf("decoded %d updates, want %d", len(got), len(us))
	}
	for i := range us {
		if got[i] != us[i] {
			t.Errorf("update %d: got %+v, want %+v", i, got[i], us[i])
		}
	}
}

func TestUpdatesEmptyBatch(t *testing.T) {
	frame := AppendUpdates(nil, nil)
	got, err := DecodeUpdates(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d updates from empty batch", len(got))
	}
}

func TestUpdatesBufferReuse(t *testing.T) {
	frame := AppendUpdates(nil, []Update{{Item: 9, Delta: 3}})
	scratch := make([]Update, 0, 8)
	got, err := DecodeUpdates(frame, scratch[:0])
	if err != nil {
		t.Fatal(err)
	}
	if &got[:1][0] != &scratch[:1][0] {
		t.Error("decoder did not reuse the caller's buffer")
	}
	// Appending a frame to a non-empty buffer leaves the prefix intact.
	buf := []byte("prefix")
	full := AppendUpdates(buf, []Update{{Item: 1, Delta: 1}})
	if !bytes.HasPrefix(full, []byte("prefix")) {
		t.Error("AppendUpdates clobbered the buffer prefix")
	}
	if _, err := DecodeUpdates(full[len("prefix"):], nil); err != nil {
		t.Errorf("frame appended after prefix does not decode: %v", err)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	req := &QueryRequest{
		Key: "tenant-a",
		Queries: []Query{
			{Kind: KindEstimate},
			{Kind: KindPoint, Item: math.MaxUint64},
			{Kind: KindTopK, K: 25},
			{Kind: KindPoint, Item: 0},
		},
	}
	frame := AppendQuery(nil, req)
	if ft, err := Type(frame); err != nil || ft != FrameQuery {
		t.Fatalf("Type = %v, %v", ft, err)
	}
	var got QueryRequest
	if err := DecodeQuery(frame, &got); err != nil {
		t.Fatal(err)
	}
	if got.Key != req.Key || len(got.Queries) != len(req.Queries) {
		t.Fatalf("got %+v, want %+v", got, req)
	}
	for i := range req.Queries {
		if got.Queries[i] != req.Queries[i] {
			t.Errorf("query %d: got %+v, want %+v", i, got.Queries[i], req.Queries[i])
		}
	}
}

// TestKindTable: KindName and KindOf invert each other over the three
// query kinds and name nothing else.
func TestKindTable(t *testing.T) {
	for k, name := range map[uint8]string{KindEstimate: "estimate", KindPoint: "point", KindTopK: "topk"} {
		if KindName(k) != name || KindOf(name) != k {
			t.Errorf("kind %d: KindName = %q, KindOf(%q) = %d", k, KindName(k), name, KindOf(name))
		}
	}
	for _, k := range []uint8{0, 4, 255} {
		if n := KindName(k); n != "" {
			t.Errorf("KindName(%d) = %q, want none", k, n)
		}
	}
	for _, n := range []string{"", "Estimate", "top-k"} {
		if k := KindOf(n); k != 0 {
			t.Errorf("KindOf(%q) = %d, want none", n, k)
		}
	}
}

func TestAnswerRoundTrip(t *testing.T) {
	item := uint64(1) << 60
	resp := &QueryResponse{
		Key:    "k",
		Sketch: "countsketch",
		Policy: "ring",
		Model:  "insertion",
		Answers: []Answer{
			{Kind: KindEstimate, Value: 123.5, ErrorBound: 0.1, Additive: true},
			{Kind: KindPoint, HasItem: true, Item: item, Value: -7, ErrorBound: 2.5},
			{Kind: KindTopK, Items: []ItemWeight{{Item: 3, Weight: 9.5}, {Item: item, Weight: -2}}, ErrorBound: 2.5},
		},
		Robustness: &Robustness{Policy: "ring", Copies: 12, Switches: 3, Budget: -1, Remaining: -1, Exhausted: false},
	}
	frame := AppendAnswer(nil, resp)
	if ft, err := Type(frame); err != nil || ft != FrameAnswer {
		t.Fatalf("Type = %v, %v", ft, err)
	}
	got, err := DecodeAnswer(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != resp.Key || got.Sketch != resp.Sketch || got.Policy != resp.Policy || got.Model != resp.Model {
		t.Fatalf("envelope fields: got %+v", got)
	}
	if len(got.Answers) != 3 {
		t.Fatalf("got %d answers", len(got.Answers))
	}
	a := got.Answers[0]
	if a.Kind != KindEstimate || a.Value != 123.5 || a.ErrorBound != 0.1 || !a.Additive || a.HasItem {
		t.Errorf("estimate answer: %+v", a)
	}
	a = got.Answers[1]
	if a.Kind != KindPoint || !a.HasItem || a.Item != item || a.Value != -7 {
		t.Errorf("point answer: %+v", a)
	}
	a = got.Answers[2]
	if a.Kind != KindTopK || len(a.Items) != 2 || a.Items[1] != (ItemWeight{Item: item, Weight: -2}) {
		t.Errorf("topk answer: %+v", a)
	}
	r := got.Robustness
	if r == nil || r.Policy != "ring" || r.Copies != 12 || r.Switches != 3 || r.Budget != -1 || r.Remaining != -1 || r.Exhausted {
		t.Errorf("robustness: %+v", r)
	}

	// Static tenants: no robustness block.
	resp.Robustness = nil
	got, err = DecodeAnswer(AppendAnswer(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Robustness != nil {
		t.Error("robustness decoded for a static answer")
	}
}

func TestDecodeRejectsHeaderDamage(t *testing.T) {
	frame := AppendUpdates(nil, []Update{{Item: 1, Delta: 2}})
	cases := []struct {
		name   string
		mangle func([]byte) []byte
		want   error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrShortFrame},
		{"short", func(b []byte) []byte { return b[:HeaderSize-1] }, ErrShortFrame},
		{"magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"version", func(b []byte) []byte { b[2] = 99; return b }, ErrBadVersion},
		{"type", func(b []byte) []byte { b[3] = 77; return b }, ErrBadType},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }, ErrBadLength},
		{"trailing frame bytes", func(b []byte) []byte { return append(b, 0) }, ErrBadLength},
		{"oversized length", func(b []byte) []byte {
			b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0xff
			return b
		}, ErrOversized},
	}
	for _, tc := range cases {
		b := tc.mangle(append([]byte(nil), frame...))
		if _, err := DecodeUpdates(b, nil); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Wrong frame type for the decoder in use.
	qf := AppendQuery(nil, &QueryRequest{Key: "k"})
	if _, err := DecodeUpdates(qf, nil); !errors.Is(err, ErrWrongType) {
		t.Errorf("updates decoder on query frame: %v", err)
	}
	if err := DecodeQuery(frame, &QueryRequest{}); !errors.Is(err, ErrWrongType) {
		t.Errorf("query decoder on updates frame: %v", err)
	}
}

func TestDecodeRejectsPayloadDamage(t *testing.T) {
	// A count that promises more updates than the payload holds.
	var frame []byte
	frame, hdr := beginFrame(frame, FrameUpdates)
	frame = appendUvarint(frame, 1000)
	frame = endFrame(frame, hdr)
	if _, err := DecodeUpdates(frame, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("overpromising count: %v", err)
	}

	// Trailing payload bytes behind a valid batch.
	frame = frame[:0]
	frame, hdr = beginFrame(frame, FrameUpdates)
	frame = appendUvarint(frame, 0)
	frame = append(frame, 0xAB)
	frame = endFrame(frame, hdr)
	if _, err := DecodeUpdates(frame, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing payload: %v", err)
	}

	// A query with an unknown kind byte.
	frame = frame[:0]
	frame, hdr = beginFrame(frame, FrameQuery)
	frame = appendString(frame, "k")
	frame = appendUvarint(frame, 1)
	frame = append(frame, 200)
	frame = endFrame(frame, hdr)
	if err := DecodeQuery(frame, &QueryRequest{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown kind: %v", err)
	}

	// A string length running past the payload.
	frame = frame[:0]
	frame, hdr = beginFrame(frame, FrameQuery)
	frame = appendUvarint(frame, 1<<20)
	frame = endFrame(frame, hdr)
	if err := DecodeQuery(frame, &QueryRequest{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("overlong string: %v", err)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}

func TestUpdatesEncodingIsCompact(t *testing.T) {
	// 512 updates with unit deltas: 8 bytes id + 1 byte delta each, plus
	// the 8-byte header and 2-byte count — the wire cost the benchmarks
	// bank on (~9 B/update vs ~25+ for JSON).
	us := make([]Update, 512)
	for i := range us {
		us[i] = Update{Item: uint64(i), Delta: 1}
	}
	frame := AppendUpdates(nil, us)
	if want := HeaderSize + 2 + 9*512; len(frame) != want {
		t.Errorf("frame size %d, want %d", len(frame), want)
	}
}
