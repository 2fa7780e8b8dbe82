package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/codec"
)

// A Checkpoint captures one tenant's durable state at a log position: the
// resolved tenant spec (so recovery can re-declare the tenant exactly) and,
// for mergeable sketches, the snapshot-envelope state. State covers every
// record with LSN <= LSN; records after it are replayed from the log.
type Checkpoint struct {
	Key   string
	LSN   uint64
	Spec  []byte // resolved tenant-spec JSON
	State []byte // snapshot envelope; empty for non-mergeable tenants

	// Mass and Deleted carry the tenant's ledger as of State (net Σdelta
	// and Σ|delta| over deletions), which lives outside the sketch state:
	// replay rebuilds it, a restored snapshot alone does not.
	Mass    int64
	Deleted int64
}

// Checkpoint file layout:
//
//	+------+---------+--------------+================================+
//	| SKCP | version | CRC32-C u32  |  body                          |
//	+------+---------+--------------+================================+
//
//	body: LSN u64 | mass u64 | deleted u64 | key len uvarint | key |
//	      spec len uvarint | spec | state len uvarint | state
//
// The CRC covers the body. Files are written to a temp name and renamed into
// place, so a crash mid-checkpoint leaves the previous checkpoint intact.
const (
	ckptMagic     = "SKCP"
	ckptVersion   = 1
	ckptHeaderLen = 4 + 1 + 4
)

// ErrCheckpointCorrupt marks a checkpoint file that failed validation.
// Callers fall back to full log replay for that tenant.
var ErrCheckpointCorrupt = errors.New("wal: checkpoint corrupt")

func checkpointPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, "ck-"+hex.EncodeToString(sum[:12])+".ckpt")
}

// encodeCheckpoint renders ck as the bytes of its checkpoint file.
func encodeCheckpoint(ck Checkpoint) []byte {
	body := make([]byte, 0, 32+len(ck.Key)+len(ck.Spec)+len(ck.State))
	body = binary.LittleEndian.AppendUint64(body, ck.LSN)
	body = binary.LittleEndian.AppendUint64(body, uint64(ck.Mass))
	body = binary.LittleEndian.AppendUint64(body, uint64(ck.Deleted))
	body = binary.AppendUvarint(body, uint64(len(ck.Key)))
	body = append(body, ck.Key...)
	body = binary.AppendUvarint(body, uint64(len(ck.Spec)))
	body = append(body, ck.Spec...)
	body = binary.AppendUvarint(body, uint64(len(ck.State)))
	body = append(body, ck.State...)

	out := make([]byte, 0, ckptHeaderLen+len(body))
	out = append(out, ckptMagic...)
	out = append(out, ckptVersion)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crcTable))
	return append(out, body...)
}

// WriteCheckpoint atomically persists ck into dir, replacing any previous
// checkpoint for the same key.
func WriteCheckpoint(dir string, ck Checkpoint) error {
	out := encodeCheckpoint(ck)
	final := checkpointPath(dir, ck.Key)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err = f.Write(out); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	return syncDir(dir)
}

// RemoveCheckpoint deletes the checkpoint for key, if any.
func RemoveCheckpoint(dir, key string) error {
	err := os.Remove(checkpointPath(dir, key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// LoadCheckpoints reads every checkpoint in dir. Corrupt files are skipped
// (their paths returned for reporting) — the tenant they belonged to is
// recovered by full replay instead.
func LoadCheckpoints(dir string) (map[string]Checkpoint, []string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "ck-*.ckpt"))
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	out := make(map[string]Checkpoint, len(paths))
	var corrupt []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		ck, derr := decodeCheckpoint(data)
		if err != nil || derr != nil {
			corrupt = append(corrupt, p)
			continue
		}
		out[ck.Key] = ck
	}
	return out, corrupt, nil
}

// decodeCheckpoint parses the bytes of a checkpoint file. Whatever is wrong
// with them — header, checksum, a length running past the body, trailing
// bytes — the answer is ErrCheckpointCorrupt.
func decodeCheckpoint(data []byte) (Checkpoint, error) {
	if len(data) < ckptHeaderLen || string(data[:4]) != ckptMagic || data[4] != ckptVersion {
		return Checkpoint{}, ErrCheckpointCorrupt
	}
	body := data[ckptHeaderLen:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[5:9]) {
		return Checkpoint{}, ErrCheckpointCorrupt
	}
	r := codec.NewReader(body)
	ck := Checkpoint{
		LSN:     r.U64(),
		Mass:    r.I64(),
		Deleted: r.I64(),
		Key:     string(r.View()),
		Spec:    append([]byte(nil), r.View()...),
		State:   append([]byte(nil), r.View()...),
	}
	if r.Done() != nil {
		return Checkpoint{}, ErrCheckpointCorrupt
	}
	return ck, nil
}
