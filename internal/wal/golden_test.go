package wal

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Golden files, produced by running these tests at a1c7373 — the last
// commit that parsed checkpoints and record payloads with hand-rolled
// readers. The writers must reproduce the bytes and the readers must
// return the values, so a data directory written before the decoders moved
// to codec.Reader recovers after it.
const (
	goldenCheckpointHex = "534b43500122fdddc3110000000001000040e2010000000000b2ffffffffffffff0a74656e616e742f6f6e651a7b22736b65746368223a226632222c22736861726473223a347d0502deadbeef"
	goldenSegmentHex    = "534b574c0101000000000000001b00000098d20ba5010a74656e616e742f6f6e657b22736b65746368223a226632227d15000000eda0fffe020a74656e616e742f6f6e65534b010101000000000c00000004958619030a74656e616e742f6f6e65"
)

var goldenCheckpoint = Checkpoint{
	Key: "tenant/one", LSN: 1<<40 + 17, Mass: 123456, Deleted: -78,
	Spec:  []byte(`{"sketch":"f2","shards":4}`),
	State: []byte{2, 0xde, 0xad, 0xbe, 0xef},
}

var goldenRecords = []Record{
	{Kind: KindCreate, Key: "tenant/one", Data: []byte(`{"sketch":"f2"}`)},
	{Kind: KindUpdate, Key: "tenant/one", Data: []byte{'S', 'K', 1, 1, 1, 0, 0, 0, 0}},
	{Kind: KindDelete, Key: "tenant/one", Data: []byte{}},
}

func TestGoldenCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, goldenCheckpoint); err != nil {
		t.Fatal(err)
	}
	path := checkpointPath(dir, goldenCheckpoint.Key)
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(written); got != goldenCheckpointHex {
		t.Errorf("checkpoint writer drifted\n got %s\nwant %s", got, goldenCheckpointHex)
	}

	golden, err := hex.DecodeString(goldenCheckpointHex)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	cks, corrupt, err := LoadCheckpoints(dir)
	if err != nil || len(corrupt) != 0 {
		t.Fatalf("golden checkpoint rejected: err %v, corrupt %v", err, corrupt)
	}
	if got := cks[goldenCheckpoint.Key]; !reflect.DeepEqual(got, goldenCheckpoint) {
		t.Errorf("decoded %+v, want %+v", got, goldenCheckpoint)
	}
}

func TestGoldenSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range goldenRecords {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "seg-00000001.wal")
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(written); got != goldenSegmentHex {
		t.Errorf("segment writer drifted\n got %s\nwant %s", got, goldenSegmentHex)
	}

	golden, err := hex.DecodeString(goldenSegmentHex)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.TruncatedBytes != 0 || st.DroppedSegments != 0 {
		t.Fatalf("golden segment needed repair: %+v", st)
	}
	var got []Record
	if err := l.Replay(func(lsn uint64, rec Record) error {
		got = append(got, Record{Kind: rec.Kind, Key: rec.Key, Data: append([]byte{}, rec.Data...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenRecords) {
		t.Errorf("replayed %+v, want %+v", got, goldenRecords)
	}
}

// FuzzCheckpointDecode: a checkpoint file is whatever survived the crash,
// so the decoder must reject anything damaged with ErrCheckpointCorrupt —
// never panic, never allocate for lengths the file cannot back — and
// whatever it accepts must survive being written back.
func FuzzCheckpointDecode(f *testing.F) {
	golden, err := hex.DecodeString(goldenCheckpointHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-3])
	f.Add(golden[:ckptHeaderLen])
	f.Add([]byte(ckptMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			if err != ErrCheckpointCorrupt {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		got, err := decodeCheckpoint(encodeCheckpoint(ck))
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if !reflect.DeepEqual(got, ck) {
			t.Fatalf("round trip changed checkpoint: %+v vs %+v", got, ck)
		}
	})
}
