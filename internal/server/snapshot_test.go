package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/hash"
)

func TestSnapshotEnvelopeRoundTrip(t *testing.T) {
	parts := [][]byte{{1, 2, 3}, {}, {0xff}}
	enc := encodeSnapshot("countsketch", parts)
	name, got, err := decodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if name != "countsketch" || len(got) != len(parts) {
		t.Fatalf("decoded (%q, %d parts), want (countsketch, %d)", name, len(got), len(parts))
	}
	for i := range parts {
		if !bytes.Equal(got[i], parts[i]) {
			t.Errorf("part %d = %v, want %v", i, got[i], parts[i])
		}
	}
	if _, _, err := decodeSnapshot(enc[:len(enc)-1]); err == nil {
		t.Error("truncated envelope accepted")
	}
	// Version 1 had no checksum; accepting it would make the CRC optional.
	v1 := append([]byte{1}, enc[snapshotV2HeaderLen:]...)
	for _, bad := range [][]byte{{9}, v1} {
		if _, _, err := decodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "unsupported snapshot format version") {
			t.Errorf("version %d: err = %v, want unsupported snapshot format version", bad[0], err)
		}
	}
	if enc[0] != snapshotFormatV2 {
		t.Fatalf("encodeSnapshot emits version %d, want V2", enc[0])
	}
}

// TestSnapshotChecksumRejectsBitFlips: any single corrupted body byte in a
// V2 envelope must surface as ErrSnapshotChecksum, never decode.
func TestSnapshotChecksumRejectsBitFlips(t *testing.T) {
	enc := encodeSnapshot("f2", [][]byte{{10, 20, 30}, {40}})
	for off := snapshotV2HeaderLen; off < len(enc); off++ {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x01
		if _, _, err := decodeSnapshot(bad); !errors.Is(err, ErrSnapshotChecksum) {
			t.Fatalf("flip at offset %d: err = %v, want ErrSnapshotChecksum", off, err)
		}
	}
	// A corrupted stored checksum must also reject.
	bad := append([]byte(nil), enc...)
	bad[1] ^= 0x01
	if _, _, err := decodeSnapshot(bad); !errors.Is(err, ErrSnapshotChecksum) {
		t.Fatalf("flip in checksum: err = %v, want ErrSnapshotChecksum", err)
	}
}

// requester returns a function that sends one request to hs and returns
// the status code and body.
func requester(t *testing.T, hs *httptest.Server) func(method, path string, body []byte) (int, []byte) {
	return func(method, path string, body []byte) (int, []byte) {
		t.Helper()
		req, _ := http.NewRequest(method, hs.URL+path, bytes.NewReader(body))
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}
}

// declare admits a policy-none tenant the way POST /v2/keys does.
func declare(t *testing.T, srv *Server, key, sketch string) {
	t.Helper()
	if _, err := srv.getOrCreate(key, TenantSpec{Sketch: sketch}); err != nil {
		t.Fatalf("declare %s as %s: %v", key, sketch, err)
	}
}

// TestMergeAtomicityAndQuota: a snapshot with one corrupted shard blob
// must reject the whole merge (no shard partially applied — a retry after
// repair must not double count), and a merge against a key nobody declared
// is a 404 that consumes no quota slot and leaves no engine behind.
func TestMergeAtomicityAndQuota(t *testing.T) {
	srv := New(Config{Shards: 2, Seed: 3, MaxKeys: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Drain()

	do := requester(t, hs)
	estimate := func(key string) float64 {
		code, body := do(http.MethodGet, "/v1/estimate?key="+key, nil)
		if code != 200 {
			t.Fatalf("estimate(%s): HTTP %d: %s", key, code, body)
		}
		var e EstimateResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		return e.Estimate
	}

	declare(t, srv, "k", "f2")
	if code, body := do(http.MethodPost, "/v1/update?key=k",
		[]byte(`{"updates":[{"item":1,"delta":5},{"item":2,"delta":3}]}`)); code != 200 {
		t.Fatalf("update: HTTP %d: %s", code, body)
	}
	before := estimate("k")

	code, snap := do(http.MethodGet, "/v1/snapshot?key=k", nil)
	if code != 200 {
		t.Fatalf("snapshot: HTTP %d", code)
	}
	name, parts, err := decodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	parts[1] = []byte{99} // corrupt one shard blob (bad codec version)
	bad := encodeSnapshot(name, parts)

	// Merging the half-corrupted snapshot into the live key must change
	// nothing: phase-1 decode fails before any shard is touched.
	if code, body := do(http.MethodPost, "/v1/merge?key=k", bad); code != http.StatusBadRequest {
		t.Errorf("corrupted merge: HTTP %d (%s), want 400", code, body)
	}
	if after := estimate("k"); after != before {
		t.Errorf("estimate moved %v → %v on a rejected merge (partial apply)", before, after)
	}

	// A well-formed snapshot of the wrong geometry is a 409, same untouched
	// state.
	code, body := do(http.MethodPost, "/v1/merge?key=k", encodeSnapshot(name, parts[:1]))
	if code != http.StatusConflict {
		t.Errorf("wrong shard count: HTTP %d, want 409", code)
	}
	if want := "merge body: conflict: snapshot has 1 shards, tenant runs 2"; !strings.Contains(string(body), want) {
		t.Errorf("wrong shard count answered %s, want it to say %q", body, want)
	}
	if after := estimate("k"); after != before {
		t.Errorf("estimate moved %v → %v on a rejected merge (partial apply)", before, after)
	}

	// A merge names a tenant, it does not make one: the valid snapshot and
	// the corrupted one both answer 404 for "fresh" and leave no tenant.
	for _, b := range [][]byte{snap, bad} {
		if code, _ := do(http.MethodPost, "/v1/merge?key=fresh", b); code != http.StatusNotFound {
			t.Errorf("merge into an undeclared key: HTTP %d, want 404", code)
		}
	}
	code, body = do(http.MethodGet, "/v1/stats", nil)
	if code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Keys != 1 {
		t.Errorf("merges into an undeclared key made tenants: %d keys, want 1", st.Keys)
	}
	for _, ks := range st.Tenants {
		if strings.Contains(ks.Key, "fresh") {
			t.Errorf("tenant %q exists after merges that answered 404", ks.Key)
		}
	}
	// A valid merge still works and doubles the linear state.
	if code, body := do(http.MethodPost, "/v1/merge?key=k", snap); code != 200 {
		t.Fatalf("valid merge: HTTP %d: %s", code, body)
	}
	if after := estimate("k"); after != 4*before { // doubled counters → 4× F2
		t.Errorf("estimate after self-merge = %v, want %v (4× — doubled linear counters)", after, 4*before)
	}
}

// TestMergeRejectsPoisonedCounters: a correctly checksummed envelope whose
// counters could never have come from a stream — NaN, ±Inf, or for f2 a
// non-integer — must be refused as a 400. NaN + x stays NaN, so one
// accepted body would leave the tenant answering an unencodable estimate
// for good.
func TestMergeRejectsPoisonedCounters(t *testing.T) {
	srv := New(Config{Shards: 2, Seed: 3})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Drain()

	do := requester(t, hs)
	for _, tc := range []struct {
		sketch string
		back   int // the last counter ends this many bytes before the blob's end
		poison []float64
	}{
		{"f2", 0, []float64{math.NaN(), math.Inf(1), 0.5, 1 << 63}},
		{"cc", 8, []float64{math.NaN(), math.Inf(1), math.Inf(-1)}},
	} {
		key := "k-" + tc.sketch
		declare(t, srv, key, tc.sketch)
		declare(t, srv, "empty-"+tc.sketch, tc.sketch)
		if code, body := do(http.MethodPost, "/v1/update?key="+key,
			[]byte(`{"updates":[{"item":1,"delta":5},{"item":2,"delta":3},{"item":3,"delta":9}]}`)); code != 200 {
			t.Fatalf("%s update: HTTP %d: %s", tc.sketch, code, body)
		}
		code, before := do(http.MethodGet, "/v1/estimate?key="+key, nil)
		var e EstimateResponse
		if err := json.Unmarshal(before, &e); code != 200 || err != nil || e.Estimate <= 0 {
			t.Fatalf("%s estimate before: HTTP %d, %q (%v)", tc.sketch, code, before, err)
		}
		code, snap := do(http.MethodGet, "/v1/snapshot?key="+key, nil)
		if code != 200 {
			t.Fatalf("%s snapshot: HTTP %d", tc.sketch, code)
		}
		name, parts, err := decodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range tc.poison {
			bad := make([][]byte, len(parts))
			for i := range parts {
				bad[i] = append([]byte(nil), parts[i]...)
			}
			last := bad[len(bad)-1]
			binary.LittleEndian.PutUint64(last[len(last)-tc.back-8:], math.Float64bits(v))
			body := encodeSnapshot(name, bad)
			for _, target := range []string{key, "empty-" + tc.sketch} {
				if code, resp := do(http.MethodPost, "/v1/merge?key="+target, body); code != http.StatusBadRequest {
					t.Errorf("%s merge with counter %v into %q: HTTP %d (%s), want 400", tc.sketch, v, target, code, resp)
				}
			}
			if code, after := do(http.MethodGet, "/v1/estimate?key="+key, nil); code != 200 || !bytes.Equal(after, before) {
				t.Fatalf("%s estimate after refusing counter %v: HTTP %d %q, want %q", tc.sketch, v, code, after, before)
			}
		}
	}
	code, body := do(http.MethodGet, "/v1/stats", nil)
	var st StatsResponse
	if err := json.Unmarshal(body, &st); code != 200 || err != nil {
		t.Fatalf("stats: HTTP %d (%v)", code, err)
	}
	for _, ks := range st.Tenants {
		if strings.HasPrefix(ks.Key, "empty-") && ks.Mass != 0 {
			t.Errorf("tenant %q holds mass %d after refusing every merge", ks.Key, ks.Mass)
		}
	}
}

// TestMergeRejectsImpossibleKMVMinima: a correctly checksummed kmv
// envelope whose minima no stream produces — one value twice, or a value
// the hash cannot reach — must be refused as a 400 and leave the tenant
// answering what it answered before. Decoded, either would break the
// distinct-and-descending invariant every KMV insert and merge relies on.
func TestMergeRejectsImpossibleKMVMinima(t *testing.T) {
	srv := New(Config{Shards: 2, Seed: 3})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Drain()

	do := requester(t, hs)
	var req UpdateRequest
	for item := uint64(1); item <= 40; item++ {
		req.Updates = append(req.Updates, UpdateItem{Item: item, Delta: 1})
	}
	updates, _ := json.Marshal(req)
	declare(t, srv, "k", "kmv")
	declare(t, srv, "empty", "kmv")
	if code, body := do(http.MethodPost, "/v1/update?key=k", updates); code != 200 {
		t.Fatalf("update: HTTP %d: %s", code, body)
	}
	code, before := do(http.MethodGet, "/v1/estimate?key=k", nil)
	var e EstimateResponse
	if err := json.Unmarshal(before, &e); code != 200 || err != nil || e.Estimate != 40 {
		t.Fatalf("estimate before: HTTP %d, %q (%v)", code, before, err)
	}
	code, snap := do(http.MethodGet, "/v1/snapshot?key=k", nil)
	if code != 200 {
		t.Fatalf("snapshot: HTTP %d", code)
	}
	name, parts, err := decodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	last := parts[len(parts)-1] // ends with the shard's minima, at least two of them
	for what, word := range map[string][]byte{
		"repeated":     last[len(last)-16 : len(last)-8],
		"out-of-field": binary.LittleEndian.AppendUint64(nil, hash.Prime),
	} {
		bad := append([][]byte(nil), parts...)
		bad[len(bad)-1] = append(append([]byte(nil), last[:len(last)-8]...), word...)
		body := encodeSnapshot(name, bad)
		for _, target := range []string{"k", "empty"} {
			if code, resp := do(http.MethodPost, "/v1/merge?key="+target, body); code != http.StatusBadRequest {
				t.Errorf("merge of a %s minimum into %q: HTTP %d (%s), want 400", what, target, code, resp)
			}
		}
		if code, after := do(http.MethodGet, "/v1/estimate?key=k", nil); code != 200 || !bytes.Equal(after, before) {
			t.Fatalf("estimate after refusing a %s minimum: HTTP %d %q, want %q", what, code, after, before)
		}
	}
	// The untouched snapshot still merges: same items, same estimate.
	if code, body := do(http.MethodPost, "/v1/merge?key=k", snap); code != 200 {
		t.Fatalf("valid merge: HTTP %d: %s", code, body)
	}
	if code, after := do(http.MethodGet, "/v1/estimate?key=k", nil); code != 200 || !bytes.Equal(after, before) {
		t.Errorf("estimate after a self-merge: HTTP %d %q, want %q", code, after, before)
	}
}

// FuzzSnapshotDecode: the merge endpoint's outer wire format must never
// panic on malformed input (the inner sketch codecs have their own fuzz
// targets in internal/fp, internal/f0, internal/heavyhitters and
// internal/entropy — together they cover every format reachable from
// POST /v1/merge).
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(encodeSnapshot("f2", [][]byte{{1, 2}, {3}}))
	// A V1-shaped envelope (version byte, then the body with no checksum):
	// must be rejected, never panic.
	f.Add(append([]byte{1}, encodeSnapshot("f2", [][]byte{{1, 2}, {3}})[snapshotV2HeaderLen:]...))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		name, parts, err := decodeSnapshot(b)
		if err != nil {
			return
		}
		// A decoded V2 envelope must checksum-verify its body exactly; any
		// accepted envelope must be internally consistent and re-encode to
		// something that decodes back to the same contents.
		enc := encodeSnapshot(name, parts)
		name2, parts2, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded envelope rejected: %v", err)
		}
		if name2 != name || len(parts2) != len(parts) {
			t.Fatalf("round trip changed envelope: (%q, %d) → (%q, %d)", name, len(parts), name2, len(parts2))
		}
		for i := range parts {
			if !bytes.Equal(parts[i], parts2[i]) {
				t.Fatalf("round trip changed part %d", i)
			}
		}
	})
}
