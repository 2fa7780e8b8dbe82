// Package wire defines the compact binary framing sketchd negotiates as
// an alternative to its JSON bodies: length-prefixed, versioned frames
// for update batches and for the v2 query/answer envelopes. Payloads are
// little-endian: fixed-width words for values that are usually large (item
// identifiers are full u64s — no 2^53 float hazard, so no string-or-number
// workaround), varints for values that are usually small (counts, deltas,
// string lengths). This package owns the frame layouts; reading words,
// varints, counts and byte strings out of an untrusted payload is
// internal/codec's job, and every decoder here parses through a
// codec.Reader.
//
// Every frame is
//
//	offset 0: magic   'S' 'K'        (2 bytes)
//	offset 2: version                (1 byte, currently 1)
//	offset 3: type                   (1 byte: 1 updates, 2 query, 3 answer,
//	                                  4 ship, 5 ship-ack, 6 route; see cluster.go)
//	offset 4: payload length         (u32 little-endian)
//	offset 8: payload                (payload length bytes)
//
// and a decoder rejects — with a typed error, never a panic — anything
// whose header or payload disagrees with that contract: short buffers,
// wrong magic, unknown versions or types, length prefixes that disagree
// with the bytes actually present, counts that promise more elements than
// the payload can hold, and trailing garbage.
//
// Encoders append to caller-supplied buffers and decoders fill
// caller-supplied slices, so a steady-state client/server pair recycles
// its buffers through pools and the codec layer allocates nothing. That
// holds only while each decoder keeps its codec.Reader in a local
// variable: payload hands it back by value, and a decoder that took it
// by pointer from a helper would pay one heap allocation per frame
// (TestDecodeUpdatesZeroAlloc).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/codec"
	"repro/internal/sketch"
)

// ContentType is the negotiated media type for binary frames: a request
// with this Content-Type carries a frame body, and a request with it in
// Accept asks for frame responses. (Error responses are always JSON —
// clients need the structured error contract regardless of codec.)
const ContentType = "application/x-sketch-frame"

// Frame header layout.
const (
	magic0     = 'S'
	magic1     = 'K'
	Version    = 1
	HeaderSize = 8

	// MaxPayload caps the declared payload length a decoder will accept
	// (64 MiB — far above any real batch, far below a u32 length prefix
	// chosen to make a server buffer 4 GiB).
	MaxPayload = 64 << 20
)

// FrameType discriminates the payload encoding.
type FrameType uint8

// Frame types.
const (
	FrameUpdates FrameType = 1 // an update batch (POST /v2/update body)
	FrameQuery   FrameType = 2 // a query envelope (POST /v2/query body)
	FrameAnswer  FrameType = 3 // an answer envelope (POST /v2/query response)
)

func (t FrameType) String() string {
	switch t {
	case FrameUpdates:
		return "updates"
	case FrameQuery:
		return "query"
	case FrameAnswer:
		return "answer"
	case FrameShip:
		return "ship"
	case FrameShipAck:
		return "ship-ack"
	case FrameRoute:
		return "route"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Typed decode errors. Every decoder failure wraps one of these, so
// callers can classify without string matching.
var (
	ErrShortFrame = errors.New("wire: buffer shorter than a frame header")
	ErrBadMagic   = errors.New("wire: bad frame magic")
	ErrBadVersion = errors.New("wire: unsupported frame version")
	ErrBadType    = errors.New("wire: unknown frame type")
	ErrWrongType  = errors.New("wire: unexpected frame type")
	ErrBadLength  = errors.New("wire: payload length disagrees with frame")
	ErrCorrupt    = errors.New("wire: corrupt frame payload")
	ErrOversized  = errors.New("wire: declared payload length exceeds limit")
)

// Update is one stream update, f[Item] += Delta — the binary twin of the
// JSON UpdateItem. It is sketch.Update, so a decoded frame goes to a
// tenant's engine without a copy.
type Update = sketch.Update

// Query kinds: each byte names one JSON "kind", and KindName and KindOf
// are the one table between them.
const (
	KindEstimate uint8 = 1
	KindPoint    uint8 = 2
	KindTopK     uint8 = 3
)

var kindNames = [...]string{KindEstimate: "estimate", KindPoint: "point", KindTopK: "topk"}

// KindName returns the JSON name of kind byte k, or "" when k names no
// kind.
func KindName(k uint8) string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return ""
}

// KindOf returns the kind byte of a JSON kind name, or 0 when name names
// no kind.
func KindOf(name string) uint8 {
	return uint8(max(slices.Index(kindNames[:], name), 0))
}

// Query is one typed query in a batch.
type Query struct {
	Kind uint8
	Item uint64 // kind point only
	K    int    // kind topk only
}

// QueryRequest is a POST /v2/query batch in the form sketchd checks and
// answers it, whichever codec carried it: a query frame decodes into it,
// and a JSON body is transcoded into it at the server's edge.
type QueryRequest struct {
	Key     string
	Queries []Query
}

// ItemWeight is one candidate heavy item with its estimated frequency. It
// is sketch.ItemWeight, so an engine's ranked top-k goes into an answer
// without a copy.
type ItemWeight = sketch.ItemWeight

// Answer is the typed response to one Query, in request order.
type Answer struct {
	Kind       uint8
	HasItem    bool // kind point: Item echoes the queried coordinate
	Item       uint64
	Value      float64
	Items      []ItemWeight
	ErrorBound float64
	Additive   bool
}

// Robustness is the flip-budget state of a robust tenant, in an answer
// frame and (as server.RobustnessStats) in JSON answers and stats. Copies,
// Switches and Budget are sums over its engine shards, each of which has a
// budget of its own, so the sums can show headroom a shard no longer has.
// Every field comes from one reading of the shards' published records,
// which may trail the tenant's acknowledged stream by up to the engine's
// refreshEvery (4096) updates per shard. Operators should watch Exhausted
// (and Remaining, which is 0 once it is set) on dense-switching and paths
// tenants: once the stream's flip number overruns the configured budget
// the robustness guarantee no longer covers it, so estimates may degrade
// under adaptive traffic.
type Robustness struct {
	Policy    string `json:"policy"`    // the declaration's: switching, ring, or paths
	Copies    int    `json:"copies"`    // maintained static instances
	Switches  int    `json:"switches"`  // published-output changes consumed
	Budget    int    `json:"budget"`    // total flip budget; -1 = unbounded (ring never exhausts)
	Remaining int    `json:"remaining"` // Budget − Switches floored at 0; 0 once Exhausted; -1 = unbounded
	Exhausted bool   `json:"exhausted"` // some shard overran its flip budget
}

// QueryResponse is a POST /v2/query answer in the form sketchd builds it:
// an answer frame encodes it, and a JSON answer is transcoded from it at
// the server's edge.
type QueryResponse struct {
	Key        string
	Sketch     string
	Policy     string
	Model      string
	Answers    []Answer
	Robustness *Robustness // nil for static tenants
}

// ---------------------------------------------------------------------------
// Header

// beginFrame appends a frame header with a zero payload length and returns
// the extended buffer plus the header offset, for endFrame to patch.
func beginFrame(dst []byte, t FrameType) ([]byte, int) {
	off := len(dst)
	return append(dst, magic0, magic1, Version, byte(t), 0, 0, 0, 0), off
}

// endFrame patches the payload length of the header at off.
func endFrame(dst []byte, off int) []byte {
	binary.LittleEndian.PutUint32(dst[off+4:off+8], uint32(len(dst)-off-HeaderSize))
	return dst
}

// Type parses b's frame header and returns its type — the sniffer a
// dispatcher uses before committing to a payload decoder.
func Type(b []byte) (FrameType, error) {
	_, t, err := parseHeader(b)
	return t, err
}

// parseHeader validates the header and the payload length against the
// buffer, returning the payload and frame type.
func parseHeader(b []byte) ([]byte, FrameType, error) {
	if len(b) < HeaderSize {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(b))
	}
	if b[0] != magic0 || b[1] != magic1 {
		return nil, 0, fmt.Errorf("%w: 0x%02x%02x", ErrBadMagic, b[0], b[1])
	}
	if b[2] != Version {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadVersion, b[2])
	}
	t := FrameType(b[3])
	if t < FrameUpdates || t > FrameRoute {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadType, b[3])
	}
	n := binary.LittleEndian.Uint32(b[4:8])
	if n > MaxPayload {
		return nil, 0, fmt.Errorf("%w: %d > %d", ErrOversized, n, MaxPayload)
	}
	if int(n) != len(b)-HeaderSize {
		return nil, 0, fmt.Errorf("%w: header says %d, frame carries %d", ErrBadLength, n, len(b)-HeaderSize)
	}
	return b[HeaderSize:], t, nil
}

// payload parses the header, requires the given frame type and returns a
// reader over the payload.
func payload(frame []byte, want FrameType) (codec.Reader, error) {
	p, t, err := parseHeader(frame)
	if err != nil {
		return codec.Reader{}, err
	}
	if t != want {
		return codec.Reader{}, fmt.Errorf("%w: got %v, want %v", ErrWrongType, t, want)
	}
	return codec.NewReader(p), nil
}

// finish closes a payload decode: any failed read, any damage the decoder
// flagged and any trailing byte make the frame corrupt.
func finish(r *codec.Reader) error {
	if err := r.Done(); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Append-side primitives (the read side is codec.Reader)

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// zigzag folds signed deltas into uvarints so small magnitudes of either
// sign stay short on the wire; codec.Reader.Varint unfolds them.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ---------------------------------------------------------------------------
// Updates frame

// AppendUpdates appends a complete updates frame — header and payload —
// to dst and returns the extended buffer. The payload is a uvarint count
// followed by one fixed u64 item and one zigzag-varint delta per update.
func AppendUpdates(dst []byte, us []Update) []byte {
	return AppendUpdatesFunc(dst, len(us), func(i int) Update { return us[i] })
}

// AppendUpdatesFunc is AppendUpdates over a virtual slice: n updates
// produced by at(0..n-1). A caller holding updates in another
// representation (the client's JSON-shaped batches) frames them without
// building a conversion slice first.
func AppendUpdatesFunc(dst []byte, n int, at func(int) Update) []byte {
	dst, hdr := beginFrame(dst, FrameUpdates)
	dst = appendUvarint(dst, uint64(n))
	for i := 0; i < n; i++ {
		u := at(i)
		dst = binary.LittleEndian.AppendUint64(dst, u.Item)
		dst = binary.AppendUvarint(dst, zigzag(u.Delta))
	}
	return endFrame(dst, hdr)
}

// DecodeUpdates decodes an updates frame into dst (reused from length 0)
// and returns the filled slice. The frame must be complete and exact:
// header, declared count, no trailing bytes.
func DecodeUpdates(frame []byte, dst []Update) ([]Update, error) {
	r, err := payload(frame, FrameUpdates)
	if err != nil {
		return nil, err
	}
	dst = dst[:0]
	// Each update occupies at least 9 payload bytes (8 item + 1 delta).
	for n := r.Count(9); n > 0 && r.Err() == nil; n-- {
		dst = append(dst, Update{Item: r.U64(), Delta: r.Varint()})
	}
	if err := finish(&r); err != nil {
		return nil, err
	}
	return dst, nil
}

// ---------------------------------------------------------------------------
// Query frame

// AppendQuery appends a complete query frame to dst. Kind-specific fields
// are encoded only for the kinds that carry them (a fixed u64 item for
// point, a uvarint k for topk).
func AppendQuery(dst []byte, req *QueryRequest) []byte {
	dst, hdr := beginFrame(dst, FrameQuery)
	dst = appendString(dst, req.Key)
	dst = appendUvarint(dst, uint64(len(req.Queries)))
	for _, q := range req.Queries {
		dst = append(dst, q.Kind)
		switch q.Kind {
		case KindPoint:
			dst = binary.LittleEndian.AppendUint64(dst, q.Item)
		case KindTopK:
			dst = appendUvarint(dst, uint64(q.K))
		}
	}
	return endFrame(dst, hdr)
}

// DecodeQuery decodes a query frame. Unknown kind bytes are a decode
// error here (the codec cannot know how to skip their operands); kind
// validity beyond framing is the server's job, same as for JSON.
func DecodeQuery(frame []byte, req *QueryRequest) error {
	r, err := payload(frame, FrameQuery)
	if err != nil {
		return err
	}
	req.Key = string(r.View())
	req.Queries = req.Queries[:0]
	for n := r.Count(1); n > 0 && r.Err() == nil; n-- { // every query is ≥ 1 byte
		q := Query{Kind: r.U8()}
		switch q.Kind {
		case KindEstimate:
		case KindPoint:
			q.Item = r.U64()
		case KindTopK:
			k := r.Uvarint()
			if k > math.MaxInt32 {
				r.Failf("topk k %d out of range", k)
			}
			q.K = int(k)
		default:
			r.Failf("unknown query kind %d", q.Kind)
		}
		req.Queries = append(req.Queries, q)
	}
	return finish(&r)
}

// ---------------------------------------------------------------------------
// Answer frame

// Answer flag bits.
const (
	ansHasItem  = 1 << 0
	ansAdditive = 1 << 1
)

// AppendAnswer appends a complete answer frame to dst.
func AppendAnswer(dst []byte, resp *QueryResponse) []byte {
	dst, hdr := beginFrame(dst, FrameAnswer)
	dst = appendString(dst, resp.Key)
	dst = appendString(dst, resp.Sketch)
	dst = appendString(dst, resp.Policy)
	dst = appendString(dst, resp.Model)
	dst = appendUvarint(dst, uint64(len(resp.Answers)))
	for _, a := range resp.Answers {
		dst = append(dst, a.Kind)
		var flags byte
		if a.HasItem {
			flags |= ansHasItem
		}
		if a.Additive {
			flags |= ansAdditive
		}
		dst = append(dst, flags)
		if a.HasItem {
			dst = binary.LittleEndian.AppendUint64(dst, a.Item)
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(a.Value))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(a.ErrorBound))
		dst = appendUvarint(dst, uint64(len(a.Items)))
		for _, iw := range a.Items {
			dst = binary.LittleEndian.AppendUint64(dst, iw.Item)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(iw.Weight))
		}
	}
	if r := resp.Robustness; r != nil {
		dst = append(dst, 1)
		dst = appendString(dst, r.Policy)
		dst = appendUvarint(dst, uint64(r.Copies))
		dst = appendUvarint(dst, uint64(r.Switches))
		dst = binary.AppendUvarint(dst, zigzag(int64(r.Budget)))
		dst = binary.AppendUvarint(dst, zigzag(int64(r.Remaining)))
		var ex byte
		if r.Exhausted {
			ex = 1
		}
		dst = append(dst, ex)
	} else {
		dst = append(dst, 0)
	}
	return endFrame(dst, hdr)
}

// DecodeAnswer decodes an answer frame.
func DecodeAnswer(frame []byte) (*QueryResponse, error) {
	r, err := payload(frame, FrameAnswer)
	if err != nil {
		return nil, err
	}
	resp := &QueryResponse{
		Key:    string(r.View()),
		Sketch: string(r.View()),
		Policy: string(r.View()),
		Model:  string(r.View()),
	}
	// Every answer is at least 19 bytes: kind, flags, value, error bound
	// and a one-byte item count.
	n := r.Count(19)
	resp.Answers = make([]Answer, 0, n)
	for ; n > 0 && r.Err() == nil; n-- {
		a := Answer{Kind: r.U8()}
		flags := r.U8()
		a.HasItem = flags&ansHasItem != 0
		a.Additive = flags&ansAdditive != 0
		if a.HasItem {
			a.Item = r.U64()
		}
		a.Value = r.F64()
		a.ErrorBound = r.F64()
		if k := r.Count(16); k > 0 { // each entry is exactly 16 bytes
			a.Items = make([]ItemWeight, 0, k)
			for ; k > 0; k-- {
				a.Items = append(a.Items, ItemWeight{Item: r.U64(), Weight: r.F64()})
			}
		}
		resp.Answers = append(resp.Answers, a)
	}
	switch present := r.U8(); present {
	case 0:
	case 1:
		resp.Robustness = &Robustness{
			Policy:    string(r.View()),
			Copies:    int(r.Uvarint()),
			Switches:  int(r.Uvarint()),
			Budget:    int(r.Varint()),
			Remaining: int(r.Varint()),
			Exhausted: r.U8() != 0,
		}
	default:
		r.Failf("bad robustness presence byte %d", present)
	}
	if err := finish(&r); err != nil {
		return nil, err
	}
	return resp, nil
}
