package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/codec"
)

// The snapshot envelope carried by GET /v1/snapshot and POST /v1/merge:
// a version byte, the sketch type name, and one opaque blob per shard
// (each shard's estimator serialized by its own MarshalBinary). Shard
// blobs are positional — merging requires the same shard count and the
// same root seed on both servers, so shard i's estimator on the source
// shares randomness with shard i's on the destination and the items hash
// to the same shards.
//
// The body is prefixed with a CRC32-C so a bit-flipped or truncated shard
// blob is rejected before it can merge silently-corrupt counters:
//
//	+---------+----------------+================================+
//	| version |  CRC32-C (u64) |  body: name, count, parts      |
//	+---------+----------------+================================+
//
// Version 2 is the only one: version 1 had no checksum, nothing has
// written it since snapshots became the WAL checkpoint body, and decoding
// it would let a /v1/merge caller opt out of the integrity check by
// choosing the version byte.
const snapshotFormatV2 = 2

// snapshotV2HeaderLen is the version byte plus the codec-encoded (u64)
// checksum that precede the body.
const snapshotV2HeaderLen = 1 + 8

var snapshotCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ErrSnapshotChecksum is returned by decodeSnapshot when a V2 envelope's
// body does not match its checksum.
var ErrSnapshotChecksum = errors.New("server: snapshot checksum mismatch")

func encodeSnapshot(sketchName string, parts [][]byte) []byte {
	var w codec.Writer
	w.U8s([]byte(sketchName))
	w.U64(uint64(len(parts)))
	for _, p := range parts {
		w.U8s(p)
	}
	body := w.Bytes()

	out := make([]byte, 0, snapshotV2HeaderLen+len(body))
	out = append(out, snapshotFormatV2)
	out = binary.LittleEndian.AppendUint64(out, uint64(crc32.Checksum(body, snapshotCRCTable)))
	return append(out, body...)
}

func decodeSnapshot(data []byte) (sketchName string, parts [][]byte, err error) {
	r := codec.NewReader(data)
	if v := r.U8(); r.Err() == nil && v != snapshotFormatV2 {
		return "", nil, fmt.Errorf("server: unsupported snapshot format version %d", v)
	}
	sum := r.U64()
	if r.Err() != nil {
		return "", nil, r.Err()
	}
	if sum != uint64(crc32.Checksum(data[snapshotV2HeaderLen:], snapshotCRCTable)) {
		return "", nil, ErrSnapshotChecksum
	}
	name := string(r.U8s())
	n := r.U64()
	if r.Err() != nil {
		return "", nil, r.Err()
	}
	// Each shard blob costs at least its 8-byte length prefix.
	if n > uint64(len(data))/8 {
		return "", nil, fmt.Errorf("server: snapshot declares %d shards for %d bytes", n, len(data))
	}
	parts = make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		parts = append(parts, r.U8s())
	}
	if err := r.Done(); err != nil {
		return "", nil, err
	}
	return name, parts, nil
}
