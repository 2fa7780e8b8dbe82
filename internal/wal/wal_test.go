package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	var last uint64
	if err := l.Replay(func(lsn uint64, rec Record) error {
		if lsn != last+1 {
			t.Fatalf("LSN jumped from %d to %d", last, lsn)
		}
		last = lsn
		out = append(out, Record{Kind: rec.Kind, Key: rec.Key, Data: append([]byte(nil), rec.Data...)})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Kind: KindCreate, Key: "alpha", Data: []byte(`{"sketch":"f2"}`)},
		{Kind: KindUpdate, Key: "alpha", Data: []byte{1, 2, 3, 4}},
		{Kind: KindUpdate, Key: "alpha", Data: nil},
		{Kind: KindDelete, Key: "alpha"},
		{Kind: KindCreate, Key: "", Data: []byte("{}")}, // empty key is legal
	}
	for i, r := range want {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d: lsn = %d, want %d", i, lsn, i+1)
		}
	}
	if got := l.HeadLSN(); got != uint64(len(want)) {
		t.Fatalf("HeadLSN = %d, want %d", got, len(want))
	}
	check := func(l *Log) {
		t.Helper()
		got := collect(t, l)
		if len(got) != len(want) {
			t.Fatalf("replayed %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Kind != want[i].Kind || got[i].Key != want[i].Key || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
	check(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Kind: KindDelete, Key: "x"}); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	check(l2)
	if got := l2.HeadLSN(); got != uint64(len(want)) {
		t.Fatalf("reopened HeadLSN = %d, want %d", got, len(want))
	}
}

// shrinkSegments makes segments rotate at n bytes for the rest of the test.
func shrinkSegments(t *testing.T, n int64) {
	old := segmentBytes
	segmentBytes = n
	t.Cleanup(func() { segmentBytes = old })
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	shrinkSegments(t, 256)
	l, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 100)
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.Append(Record{Kind: KindUpdate, Key: "k", Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 5 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Records != n || st.Segments != len(segs) || st.TruncatedBytes != 0 {
		t.Fatalf("stats = %+v, want %d records over %d clean segments", st, n, len(segs))
	}
	got := collect(t, l2)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	// Appends continue across the reopen with contiguous LSNs.
	lsn, err := l2.Append(Record{Kind: KindUpdate, Key: "k", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != n+1 {
		t.Fatalf("post-reopen lsn = %d, want %d", lsn, n+1)
	}
}

func appendSome(t *testing.T, dir string, n int) {
	t.Helper()
	l, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(Record{Kind: KindUpdate, Key: "t", Data: []byte{byte(i), 0xFF}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func singleSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("expected 1 segment, got %d", len(segs))
	}
	return segs[0]
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 3, recHeaderSize - 1, recHeaderSize, recHeaderSize + 1} {
		dir := t.TempDir()
		appendSome(t, dir, 5)
		seg := singleSegment(t, dir)
		// Simulate a torn write: a partial record at the tail.
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		garbage := make([]byte, cut+4)
		binary.LittleEndian.PutUint32(garbage, 7) // plausible length prefix
		if _, err := f.Write(garbage[:cut]); err != nil {
			t.Fatal(err)
		}
		f.Close()

		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: open failed instead of truncating: %v", cut, err)
		}
		st := l.Stats()
		if st.Records != 5 || st.TruncatedBytes != int64(cut) {
			t.Fatalf("cut=%d: stats = %+v, want 5 records and %d truncated bytes", cut, st, cut)
		}
		if got := collect(t, l); len(got) != 5 {
			t.Fatalf("cut=%d: replayed %d records, want 5", cut, len(got))
		}
		// The log must stay appendable after repair.
		if lsn, err := l.Append(Record{Kind: KindDelete, Key: "t"}); err != nil || lsn != 6 {
			t.Fatalf("cut=%d: append after repair: lsn=%d err=%v", cut, lsn, err)
		}
		l.Close()
	}
}

func TestBitFlipTruncatesFromFlip(t *testing.T) {
	dir := t.TempDir()
	appendSome(t, dir, 5)
	seg := singleSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the third record's payload.
	recSize := (int64(len(data)) - segHeaderSize) / 5
	off := segHeaderSize + 2*recSize + recHeaderSize
	data[off] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open failed instead of truncating: %v", err)
	}
	defer l.Close()
	if got := collect(t, l); len(got) != 2 {
		t.Fatalf("replayed %d records after mid-file bit flip, want 2 (prefix before flip)", len(got))
	}
}

// TestReplayRejectsSegmentRewrittenAfterOpen: Replay re-reads the files
// Open validated, so it must walk them with Open's checks. A length word
// (or a payload byte) overwritten in place between the two is the "file
// changed underneath us" error after the records before it — never a
// slice out of range, never a record whose CRC no longer holds.
func TestReplayRejectsSegmentRewrittenAfterOpen(t *testing.T) {
	for name, corrupt := range map[string]func(rec []byte){
		"length word": func(rec []byte) { binary.LittleEndian.PutUint32(rec, 1<<20) },
		"payload bit": func(rec []byte) { rec[recHeaderSize] ^= 0x40 },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			appendSome(t, dir, 5)
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			seg := singleSegment(t, dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			recSize := (len(data) - segHeaderSize) / 5
			corrupt(data[segHeaderSize+2*recSize:]) // the third record
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			seen := 0
			err = l.Replay(func(uint64, Record) error { seen++; return nil })
			if err == nil || seen != 2 {
				t.Fatalf("replay of a rewritten segment: %d records, err = %v; want 2 records then an error", seen, err)
			}
		})
	}
}

func TestCorruptSegmentQuarantinesLaterSegments(t *testing.T) {
	dir := t.TempDir()
	shrinkSegments(t, 64)
	l, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append(Record{Kind: KindUpdate, Key: "t", Data: bytes.Repeat([]byte{1}, 40)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	// Corrupt the header of the second segment: it and everything after are
	// unusable history.
	if err := os.WriteFile(segs[1], []byte("JUNK"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.DroppedSegments != len(segs)-1 {
		t.Fatalf("dropped %d segments, want %d", st.DroppedSegments, len(segs)-1)
	}
	if got := collect(t, l2); len(got) != 1 {
		t.Fatalf("replayed %d records, want 1 (first segment only)", len(got))
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(quarantined) != len(segs)-1 {
		t.Fatalf("found %d .corrupt files, want %d", len(quarantined), len(segs)-1)
	}
}

func TestFsyncBatchSyncsInBackground(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Kind: KindCreate, Key: "a", Data: []byte("{}")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		l.mu.Lock()
		dirty := l.dirty
		l.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background sync never cleared dirty flag")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenLocksDirectory: one Log owns a directory. A second Open fails with
// ErrLocked and leaves the owner working, Close hands the directory on, and
// a copy of a held directory opens.
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	appendSome(t, dir, 3)
	l, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // a failed Open releases nothing it did not take
		if l2, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
			if l2 != nil {
				l2.Close()
			}
			t.Fatalf("second Open of a held directory: err = %v, want ErrLocked", err)
		}
	}
	if _, err := l.Append(Record{Kind: KindDelete, Key: "x"}); err != nil {
		t.Fatalf("owner after a refused Open: %v", err)
	}

	cp := t.TempDir()
	paths, _ := filepath.Glob(filepath.Join(dir, "*"))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, filepath.Base(p)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lc, err := Open(cp, Options{})
	if err != nil {
		t.Fatalf("Open of a copied directory: %v", err)
	}
	if got := lc.HeadLSN(); got != 4 {
		t.Fatalf("copy's HeadLSN = %d, want 4", got)
	}
	lc.Close()

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	l3.Close()

	// A failed Open lets go of the lock. A junk segment whose quarantine name
	// is taken by a directory fails Open; cleared, the next Open succeeds.
	bad := t.TempDir()
	seg := filepath.Join(bad, "seg-00000001.wal")
	if err := os.WriteFile(seg, []byte("JUNK"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(seg+".corrupt", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if l4, err := Open(bad, Options{}); err == nil {
		l4.Close()
		t.Fatal("Open succeeded with its quarantine blocked")
	}
	if err := os.RemoveAll(seg + ".corrupt"); err != nil {
		t.Fatal(err)
	}
	l5, err := Open(bad, Options{})
	if err != nil {
		t.Fatalf("Open after a failed Open: %v", err)
	}
	l5.Close()
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := Checkpoint{
		Key:   "tenant/one",
		LSN:   42,
		Spec:  []byte(`{"sketch":"f2","eps":0.1}`),
		State: []byte{9, 8, 7, 6, 5},
	}
	if err := WriteCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a newer checkpoint; the latest wins.
	want.LSN = 99
	want.State = []byte{1, 2, 3}
	if err := WriteCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	// A second tenant, stateless (non-mergeable).
	other := Checkpoint{Key: "tenant/two", LSN: 7, Spec: []byte(`{}`)}
	if err := WriteCheckpoint(dir, other); err != nil {
		t.Fatal(err)
	}

	got, corrupt, err := LoadCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 0 {
		t.Fatalf("unexpected corrupt checkpoints: %v", corrupt)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d checkpoints, want 2", len(got))
	}
	ck := got["tenant/one"]
	if ck.LSN != 99 || !bytes.Equal(ck.Spec, want.Spec) || !bytes.Equal(ck.State, []byte{1, 2, 3}) {
		t.Fatalf("checkpoint = %+v", ck)
	}
	if ck2 := got["tenant/two"]; ck2.LSN != 7 || len(ck2.State) != 0 {
		t.Fatalf("stateless checkpoint = %+v", ck2)
	}

	if err := RemoveCheckpoint(dir, "tenant/one"); err != nil {
		t.Fatal(err)
	}
	if err := RemoveCheckpoint(dir, "tenant/one"); err != nil {
		t.Fatal(err) // idempotent
	}
	got, _, err = LoadCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["tenant/one"]; ok {
		t.Fatal("checkpoint survived removal")
	}
}

func TestCorruptCheckpointSkipped(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, Checkpoint{Key: "good", LSN: 1, Spec: []byte("{}")}); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(dir, Checkpoint{Key: "bad", LSN: 2, Spec: []byte("{}")}); err != nil {
		t.Fatal(err)
	}
	p := checkpointPath(dir, "bad")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, corrupt, err := LoadCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 1 {
		t.Fatalf("corrupt = %v, want one entry", corrupt)
	}
	if _, ok := got["good"]; !ok || len(got) != 1 {
		t.Fatalf("loaded = %v, want only the good checkpoint", got)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{"": FsyncAlways, "always": FsyncAlways, "batch": FsyncBatch, "none": FsyncNone}
	for s, want := range cases {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	// Round trip: every policy has exactly one flag value naming it.
	for _, p := range []Policy{FsyncAlways, FsyncBatch, FsyncNone} {
		var names []string
		for s, want := range cases {
			if s != "" && want == p {
				names = append(names, s)
			}
		}
		if len(names) != 1 {
			t.Fatalf("policy %d is named by %q, want exactly one flag value", p, names)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

// TestFailedAppendPoisonsLog: an Append whose write fails cuts the segment
// back to its last good record and poisons the log — the next Append fails
// even on a healthy descriptor, so no acknowledged record can land behind
// torn bytes that the next Open would truncate it with — and recovery
// returns exactly the records appended before the failure.
func TestFailedAppendPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 3; i++ {
		rec := Record{Kind: KindUpdate, Key: "k", Data: []byte{byte(i), 1, 2}}
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	active := l.segs[len(l.segs)-1]

	// A short write leaves torn bytes behind the last record, and the
	// descriptor refuses the rest.
	torn, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := torn.Write([]byte{0x20, 0, 0, 0, 0xba}); err != nil {
		t.Fatal(err)
	}
	torn.Close()
	ro, err := os.Open(active.path)
	if err != nil {
		t.Fatal(err)
	}
	good := l.f
	l.f = ro
	if _, err := l.Append(Record{Kind: KindUpdate, Key: "k", Data: []byte{9}}); err == nil {
		t.Fatal("Append through a read-only descriptor succeeded")
	}
	l.f = good
	ro.Close()
	fi, err := os.Stat(active.path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != active.size {
		t.Fatalf("segment after the failed append: %d bytes, want it cut back to %d", fi.Size(), active.size)
	}
	if _, err := l.Append(Record{Kind: KindUpdate, Key: "k", Data: []byte{10}}); err == nil {
		t.Fatal("Append after a failed append succeeded; the log must stay poisoned")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("Sync after a failed append succeeded")
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want the %d appended before the failure", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
