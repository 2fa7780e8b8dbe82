package server

import (
	"encoding/hex"
	"reflect"
	"testing"
)

// goldenSnapshotHex is one V2 snapshot envelope, produced by running this
// test at a1c7373 — the last commit whose decodeSnapshot mixed raw
// encoding/binary calls into its codec.Reader reads. The envelope is the
// body of /v1/snapshot, of a WAL checkpoint's State and of a ship frame's
// State, so its bytes must not move.
const goldenSnapshotHex = "0212428239000000000b00000000000000636f756e74736b657463680400000000000000030000000000000001020300000000000000000100000000000000ff0b0000000000000073686172642d7468726565"

func TestGoldenSnapshotEnvelope(t *testing.T) {
	const name = "countsketch"
	parts := [][]byte{{1, 2, 3}, nil, {0xff}, []byte("shard-three")} // an empty blob decodes as nil

	if got := hex.EncodeToString(encodeSnapshot(name, parts)); got != goldenSnapshotHex {
		t.Errorf("snapshot encoder drifted\n got %s\nwant %s", got, goldenSnapshotHex)
	}
	golden, err := hex.DecodeString(goldenSnapshotHex)
	if err != nil {
		t.Fatal(err)
	}
	gotName, gotParts, err := decodeSnapshot(golden)
	if err != nil {
		t.Fatalf("golden envelope rejected: %v", err)
	}
	if gotName != name || !reflect.DeepEqual(gotParts, parts) {
		t.Errorf("decoded (%q, %v), want (%q, %v)", gotName, gotParts, name, parts)
	}
}
