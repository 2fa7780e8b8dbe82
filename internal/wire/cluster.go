package wire

import "encoding/binary"

// Cluster frames. internal/cluster turns N sketchd processes into one
// logical service by shipping tenant snapshots between peers and
// exchanging membership views; both ride the same framing contract as
// the ingest/query frames — typed errors, never a panic, exact payload
// lengths — so a byte stream from a confused or hostile peer is rejected
// at the codec layer, before any cluster state is touched.
//
//   - A ship frame (FrameShip) carries one tenant's replication payload:
//     the resolved TenantSpec as JSON (the declaration a replica rebuilds
//     the tenant from — it includes the resolved seed, which is what makes
//     the copies snapshot-compatible; ship frames are a server-to-server
//     surface and must never be exposed to tenants), an optional snapshot
//     envelope (absent for non-mergeable robust tenants, which replicate
//     as spec-only declarations), the sender's mass telemetry, and a
//     per-key shipment sequence number that orders copies across owners.
//   - A ship ack (FrameShipAck) reports whether the receiver applied the
//     shipment; a stale or refused shipment is a normal answer, not an
//     HTTP error, so the shipper can distinguish "peer is behind my view"
//     from "peer is down".
//   - A route frame (FrameRoute) is the failure detector's probe and the
//     membership gossip in one: the sender's view of every node —
//     incarnation sequence number and draining flag — where the highest
//     incarnation wins on merge, so a drain announced once propagates
//     through any live path.

// Cluster frame types (continuing the FrameUpdates/FrameQuery/FrameAnswer
// numbering).
const (
	FrameShip    FrameType = 4 // tenant replication payload (owner → replica)
	FrameShipAck FrameType = 5 // shipment outcome (replica → owner)
	FrameRoute   FrameType = 6 // membership view exchange (any → any)
)

// Ship is one tenant replication payload.
type Ship struct {
	// From is the advertised address of the shipping node.
	From string
	// Key is the tenant keyspace being replicated.
	Key string
	// Seq orders shipments of this key: a receiver applies a shipment only
	// if Seq exceeds the last one it applied, so reordered or duplicated
	// ships (and a late ship from a deposed owner) cannot roll a replica
	// back.
	Seq uint64
	// Mass and Deleted carry the sender's mass telemetry, which lives
	// outside the sketch state (see engine.SeedMass).
	Mass    int64
	Deleted int64
	// Spec is the resolved TenantSpec as JSON.
	Spec []byte
	// State is the checksummed snapshot envelope, or nil for a spec-only
	// shipment (non-mergeable robust tenants have no serializable state).
	State []byte
}

// ShipAck is the receiver's answer to a Ship.
type ShipAck struct {
	Key string
	Seq uint64
	// Applied reports whether the shipment replaced the receiver's copy;
	// false with an empty Err means the shipment was stale (the receiver
	// already held Seq or newer), false with Err the reason it was refused.
	Applied bool
	Err     string
}

// RouteEntry is one node in a membership view.
type RouteEntry struct {
	// Addr is the node's advertised address.
	Addr string
	// Seq is the node's incarnation sequence number; on merge the entry
	// with the higher Seq wins, so flag changes propagate monotonically.
	Seq uint64
	// Draining marks a node that asked to shed ownership (manual drain):
	// it stays reachable but places no tenants.
	Draining bool
}

// RouteTable is one node's view of the membership.
type RouteTable struct {
	From    string
	Entries []RouteEntry
}

// Flag bytes. Unknown bits are a decode error, keeping frames canonical:
// a frame either round-trips bit-exactly or is rejected.
const (
	shipHasState  = 1 << 0
	routeDraining = 1 << 0
)

func appendBytes(dst []byte, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendShip appends a complete ship frame to dst.
func AppendShip(dst []byte, sh *Ship) []byte {
	dst, hdr := beginFrame(dst, FrameShip)
	dst = appendString(dst, sh.From)
	dst = appendString(dst, sh.Key)
	dst = binary.LittleEndian.AppendUint64(dst, sh.Seq)
	dst = binary.AppendUvarint(dst, zigzag(sh.Mass))
	dst = binary.AppendUvarint(dst, zigzag(sh.Deleted))
	var flags byte
	if sh.State != nil {
		flags |= shipHasState
	}
	dst = append(dst, flags)
	dst = appendBytes(dst, sh.Spec)
	if sh.State != nil {
		dst = appendBytes(dst, sh.State)
	}
	return endFrame(dst, hdr)
}

// DecodeShip decodes a ship frame. Spec and State are copies: they outlive
// the frame buffer (an applied shipment's spec is journaled, its state
// folded later).
func DecodeShip(frame []byte, sh *Ship) error {
	r, err := payload(frame, FrameShip)
	if err != nil {
		return err
	}
	*sh = Ship{}
	sh.From = string(r.View())
	sh.Key = string(r.View())
	sh.Seq = r.U64()
	sh.Mass = r.Varint()
	sh.Deleted = r.Varint()
	flags := r.U8()
	if flags&^byte(shipHasState) != 0 {
		r.Failf("unknown ship flag bits 0x%02x", flags)
	}
	sh.Spec = append([]byte(nil), r.View()...)
	if flags&shipHasState != 0 {
		sh.State = append([]byte{}, r.View()...) // present but empty stays non-nil
	}
	return finish(&r)
}

// AppendShipAck appends a complete ship-ack frame to dst.
func AppendShipAck(dst []byte, ack *ShipAck) []byte {
	dst, hdr := beginFrame(dst, FrameShipAck)
	dst = appendString(dst, ack.Key)
	dst = binary.LittleEndian.AppendUint64(dst, ack.Seq)
	var applied byte
	if ack.Applied {
		applied = 1
	}
	dst = append(dst, applied)
	dst = appendString(dst, ack.Err)
	return endFrame(dst, hdr)
}

// DecodeShipAck decodes a ship-ack frame.
func DecodeShipAck(frame []byte, ack *ShipAck) error {
	r, err := payload(frame, FrameShipAck)
	if err != nil {
		return err
	}
	*ack = ShipAck{}
	ack.Key = string(r.View())
	ack.Seq = r.U64()
	applied := r.U8()
	if applied > 1 {
		r.Failf("bad applied byte %d", applied)
	}
	ack.Applied = applied == 1
	ack.Err = string(r.View())
	return finish(&r)
}

// AppendRoute appends a complete route frame to dst.
func AppendRoute(dst []byte, rt *RouteTable) []byte {
	dst, hdr := beginFrame(dst, FrameRoute)
	dst = appendString(dst, rt.From)
	dst = appendUvarint(dst, uint64(len(rt.Entries)))
	for _, e := range rt.Entries {
		dst = appendString(dst, e.Addr)
		dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
		var flags byte
		if e.Draining {
			flags |= routeDraining
		}
		dst = append(dst, flags)
	}
	return endFrame(dst, hdr)
}

// DecodeRoute decodes a route frame.
func DecodeRoute(frame []byte, rt *RouteTable) error {
	r, err := payload(frame, FrameRoute)
	if err != nil {
		return err
	}
	rt.From = string(r.View())
	rt.Entries = rt.Entries[:0]
	// Each entry occupies at least 10 payload bytes (1 addr length + 8 seq
	// + 1 flags).
	for n := r.Count(10); n > 0 && r.Err() == nil; n-- {
		e := RouteEntry{Addr: string(r.View()), Seq: r.U64()}
		flags := r.U8()
		if flags&^byte(routeDraining) != 0 {
			r.Failf("unknown route flag bits 0x%02x", flags)
		}
		e.Draining = flags&routeDraining != 0
		rt.Entries = append(rt.Entries, e)
	}
	return finish(&r)
}
