// Package wal implements the persistence layer behind sketchd: a segmented,
// CRC-per-record append-only log plus per-tenant checkpoint files.
//
// The log is deliberately dumb about its payloads. A record is a kind byte, a
// tenant key, and an opaque blob — for updates the blob is the exact
// internal/wire updates frame the client sent, so the on-disk format and the
// on-wire format are one and the same. Interpretation (decoding frames,
// re-resolving tenant specs) belongs to the caller.
//
// On-disk layout inside a data directory:
//
//	LOCK               held (flock) by the one Log open on the directory
//	seg-00000001.wal   segment: header + records
//	seg-00000002.wal   ...
//	ck-<hash>.ckpt     one checkpoint per tenant (see checkpoint.go)
//
// Segment header (13 bytes):
//
//	+------+---------+-----------------+
//	| SKWL | version |  first LSN (u64)|
//	+------+---------+-----------------+
//
// Record framing (little-endian):
//
//	+-------------+--------------+=================+
//	| length u32  | CRC32-C u32  |  payload        |
//	+-------------+--------------+=================+
//
// Record payload:
//
//	+------+----------------+=====+==============================+
//	| kind | key len uvarint| key |  data (rest of payload)      |
//	+------+----------------+=====+==============================+
//
// Every record carries a log sequence number (LSN), implicit in its position:
// the segment header stores the LSN of the segment's first record and records
// are numbered consecutively from there. LSNs start at 1.
//
// Open validates every record's CRC. The first invalid record marks the end
// of history: the segment is truncated there and any later segments are set
// aside (renamed with a .corrupt suffix) rather than replayed — a torn tail
// from a crash mid-write is recovered, never a failed boot.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/codec"
)

// Fsync policies. FsyncAlways is the zero value on purpose: the safe mode is
// the one you get by forgetting to choose.
type Policy int

const (
	// FsyncAlways syncs the active segment before Append returns. Every
	// acknowledged record survives power loss.
	FsyncAlways Policy = iota
	// FsyncBatch lets Append return after write(2); a background goroutine
	// syncs the active segment every batchInterval. A crash can lose at most
	// the records written inside the last interval.
	FsyncBatch
	// FsyncNone never calls fsync. Durability is whatever the OS page cache
	// feels like; process crashes (as opposed to power loss) still keep all
	// written records.
	FsyncNone
)

// ParsePolicy maps the sketchd -fsync flag values onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, batch, or none)", s)
}

// Record kinds. The numbering is part of the on-disk format.
type Kind uint8

const (
	KindCreate Kind = 1 // data = resolved tenant-spec JSON
	KindUpdate Kind = 2 // data = internal/wire updates frame
	KindDelete Kind = 3 // data empty
)

// Record is one logical log entry.
type Record struct {
	Kind Kind
	Key  string // tenant key
	Data []byte // kind-dependent; during Replay only valid inside the callback
}

// Options configures a Log. The zero value is usable: fsync on every append.
type Options struct {
	Fsync Policy
}

// segmentBytes is the active segment's rotation size (a variable for tests).
var segmentBytes int64 = 64 << 20

const (
	// batchInterval is FsyncBatch's sync cadence.
	batchInterval = 50 * time.Millisecond

	segMagic      = "SKWL"
	segVersion    = 1
	segHeaderSize = 4 + 1 + 8
	recHeaderSize = 4 + 4

	// maxRecordBytes bounds a single record. Update frames are capped at the
	// server's request-body limit (64 MiB); leave headroom for key + framing.
	maxRecordBytes = 68 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append and Sync after Close.
var ErrClosed = errors.New("wal: log closed")

// ErrLocked is returned by Open for a directory another Log holds.
var ErrLocked = errors.New("wal: data directory is locked by another log")

type segment struct {
	path     string
	index    uint64
	firstLSN uint64
	records  uint64
	size     int64 // valid bytes (truncation point at scan time, append head for the active segment)
}

// Stats reports what Open found and repaired.
type Stats struct {
	Segments        int
	Records         uint64
	TruncatedBytes  int64 // bytes cut from a torn segment tail
	DroppedSegments int   // later segments set aside after a corrupt one
}

// Log is a segmented append-only log. Safe for concurrent use.
type Log struct {
	dir  string
	opts Options
	lock *os.File // LOCK, flocked for the Log's lifetime

	mu      sync.Mutex
	f       *os.File
	segs    []segment
	nextLSN uint64
	dirty   bool
	err     error // the first failed write or sync: every later Append and Sync returns it
	closed  bool

	buf   []byte
	stats Stats // set by Open, read-only after

	stopSync chan struct{}
	syncDone chan struct{}
}

// Open opens (creating if needed) and flocks the log in dir until Close,
// validates all segments, and truncates a torn tail. Corruption is repaired,
// not fatal: only I/O errors, unparseable directories and a directory another
// Log holds (ErrLocked) fail Open. A dead process's lock is the kernel's to drop.
func Open(dir string, opts Options) (l *Log, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
		}
		return nil, fmt.Errorf("wal: locking %s: %w", dir, err)
	}
	defer func() {
		if err != nil {
			lock.Close()
		}
	}()
	l = &Log{dir: dir, opts: opts, lock: lock, nextLSN: 1}

	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	sort.Strings(paths)

	for i, p := range paths {
		seg, n, serr := scanSegment(p, l.nextLSN)
		if serr != nil {
			// Unreadable header or out-of-sequence segment: everything from
			// here on is unusable history. Set it aside and stop.
			if derr := l.dropFrom(paths[i:]); derr != nil {
				return nil, derr
			}
			break
		}
		l.nextLSN = seg.firstLSN + seg.records
		l.stats.Records += seg.records
		l.segs = append(l.segs, seg)
		if seg.size < n {
			l.stats.TruncatedBytes += n - seg.size
			if terr := os.Truncate(p, seg.size); terr != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", p, terr)
			}
			if derr := l.dropFrom(paths[i+1:]); derr != nil {
				return nil, derr
			}
			break
		}
	}
	l.stats.Segments = len(l.segs)

	if len(l.segs) == 0 {
		if err := l.newSegmentLocked(); err != nil {
			return nil, err
		}
	} else {
		active := &l.segs[len(l.segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(active.size, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
	}

	if opts.Fsync == FsyncBatch {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// dropFrom renames the given segment files out of the way with a .corrupt
// suffix so they are preserved for forensics but never replayed.
func (l *Log) dropFrom(paths []string) error {
	for _, p := range paths {
		if err := os.Rename(p, p+".corrupt"); err != nil {
			return fmt.Errorf("wal: quarantining %s: %w", p, err)
		}
		l.stats.DroppedSegments++
	}
	return nil
}

// scanSegment validates p's header and records. It returns the segment
// metadata with size set to the last valid byte, the file's length (past
// size when a torn or corrupt record ends the segment early; it is usable up
// to size), and an error only if the header itself is unusable or the first
// LSN does not continue the sequence.
func scanSegment(p string, wantLSN uint64) (segment, int64, error) {
	data, err := os.ReadFile(p)
	if err != nil {
		return segment{}, 0, err
	}
	if len(data) < segHeaderSize || string(data[:4]) != segMagic || data[4] != segVersion {
		return segment{}, 0, fmt.Errorf("wal: bad segment header in %s", p)
	}
	first := binary.LittleEndian.Uint64(data[5:13])
	if first != wantLSN {
		return segment{}, 0, fmt.Errorf("wal: segment %s starts at LSN %d, want %d", p, first, wantLSN)
	}
	seg := segment{path: p, firstLSN: first, size: segHeaderSize}
	fmt.Sscanf(filepath.Base(p), "seg-%08d.wal", &seg.index)

	n := int64(len(data))
	seg.size, seg.records, _ = walkRecords(data, n, nil)
	return seg, n, nil
}

// walkRecords is the one record walk, behind Open's scan and Replay alike:
// it visits the records of a segment image in order up to limit and stops
// at the first one that fails a check — header or payload past limit, zero
// or oversized length, CRC mismatch, a payload decodePayload rejects. It
// returns the offset just past the last record that passed and how many
// did; fn, if any, sees each with its index, and its error aborts the walk.
func walkRecords(data []byte, limit int64, fn func(i uint64, rec Record) error) (end int64, records uint64, err error) {
	off := int64(segHeaderSize)
	for off+recHeaderSize <= limit {
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if plen == 0 || plen > maxRecordBytes || off+recHeaderSize+plen > limit {
			break // torn or garbage length
		}
		payload := data[off+recHeaderSize : off+recHeaderSize+plen]
		if crc32.Checksum(payload, crcTable) != crc {
			break
		}
		rec, derr := decodePayload(payload)
		if derr != nil {
			break // CRC-valid but not a record we could have written
		}
		if fn != nil {
			if err := fn(records, rec); err != nil {
				return off, records, err
			}
		}
		off += recHeaderSize + plen
		records++
	}
	return off, records, nil
}

func encodePayload(buf []byte, rec Record) []byte {
	buf = append(buf, byte(rec.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Key)))
	buf = append(buf, rec.Key...)
	return append(buf, rec.Data...)
}

func decodePayload(p []byte) (Record, error) {
	r := codec.NewReader(p)
	rec := Record{Kind: Kind(r.U8()), Key: string(r.View()), Data: r.Rest()}
	if err := r.Err(); err != nil {
		return Record{}, fmt.Errorf("wal: bad record payload: %w", err)
	}
	if rec.Kind != KindCreate && rec.Kind != KindUpdate && rec.Kind != KindDelete {
		return Record{}, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	return rec, nil
}

func (l *Log) newSegmentLocked() error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.f = nil
	}
	var index uint64 = 1
	if len(l.segs) > 0 {
		index = l.segs[len(l.segs)-1].index + 1
	}
	path := filepath.Join(l.dir, fmt.Sprintf("seg-%08d.wal", index))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := make([]byte, segHeaderSize)
	copy(hdr, segMagic)
	hdr[4] = segVersion
	binary.LittleEndian.PutUint64(hdr[5:], l.nextLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if l.opts.Fsync != FsyncNone {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	l.f = f
	l.segs = append(l.segs, segment{path: path, index: index, firstLSN: l.nextLSN, size: segHeaderSize})
	return nil
}

// Append writes rec and returns its LSN, honoring the configured fsync
// policy before returning. A failed write or sync poisons the log (fail).
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}

	l.buf = l.buf[:0]
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	l.buf = encodePayload(l.buf, rec)
	payload := l.buf[recHeaderSize:]
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	binary.LittleEndian.PutUint32(l.buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[4:], crc32.Checksum(payload, crcTable))

	active := &l.segs[len(l.segs)-1]
	if active.size+int64(len(l.buf)) > segmentBytes && active.records > 0 {
		if err := l.newSegmentLocked(); err != nil {
			return 0, l.fail(err)
		}
		active = &l.segs[len(l.segs)-1]
	}

	if _, err := l.f.Write(l.buf); err != nil {
		return 0, l.fail(fmt.Errorf("wal: %w", err))
	}
	switch l.opts.Fsync {
	case FsyncAlways:
		if err := l.f.Sync(); err != nil {
			return 0, l.fail(fmt.Errorf("wal: %w", err))
		}
	case FsyncBatch:
		l.dirty = true
	}
	active.size += int64(len(l.buf))
	active.records++
	lsn := l.nextLSN
	l.nextLSN++
	return lsn, nil
}

// fail poisons the log with err, cutting the active segment back to its
// last good record: no later record lands behind torn bytes, and a record
// refused to its caller does not come back at the next boot.
func (l *Log) fail(err error) error {
	active := l.segs[len(l.segs)-1]
	if terr := os.Truncate(active.path, active.size); terr != nil {
		err = errors.Join(err, fmt.Errorf("wal: cutting %s back to its last record: %w", active.path, terr))
	}
	l.err = err
	return err
}

// Sync forces an fsync of the active segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: %w", err)
		return l.err
	}
	l.dirty = false
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(batchInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.dirty {
				if err := l.f.Sync(); err != nil && l.err == nil {
					// Surface the broken disk on the next Append instead of
					// silently acknowledging non-durable writes.
					l.err = fmt.Errorf("wal: background sync: %w", err)
				}
				l.dirty = false
			}
			l.mu.Unlock()
		}
	}
}

// HeadLSN returns the LSN of the last appended record (0 if none).
func (l *Log) HeadLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Stats returns what Open found and repaired.
func (l *Log) Stats() Stats { return l.stats }

// Replay calls fn for every record in LSN order. rec.Data is only valid for
// the duration of the callback. Replay may be called on a live log, but only
// before concurrent Appends begin (sketchd replays during boot, before
// serving). A non-nil error from fn aborts the replay.
func (l *Log) Replay(fn func(lsn uint64, rec Record) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()

	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if int64(len(data)) < seg.size {
			return fmt.Errorf("wal: segment %s shrank", seg.path)
		}
		end, _, err := walkRecords(data, seg.size, func(i uint64, rec Record) error { return fn(seg.firstLSN+i, rec) })
		if err != nil {
			return err
		}
		if end != seg.size {
			// Open validated this prefix; stopping short of it means the
			// file changed underneath us.
			return fmt.Errorf("wal: segment %s: invalid record at offset %d of a prefix Open validated", seg.path, end)
		}
	}
	return nil
}

// Close syncs and closes the active segment and releases the directory.
// Further Appends fail with ErrClosed. Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var err error
	if l.err == nil {
		if serr := l.f.Sync(); serr != nil {
			err = fmt.Errorf("wal: %w", serr)
		}
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	l.closed = true
	stop := l.stopSync
	done := l.syncDone
	l.mu.Unlock()

	if stop != nil {
		close(stop)
		<-done
	}
	l.lock.Close() // closing the descriptor drops the flock
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", dir, err)
	}
	return nil
}
