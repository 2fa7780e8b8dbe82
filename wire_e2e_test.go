package repro

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// bootCodec starts a sketchd instance and returns a client pinned to the
// given wire codec.
func bootCodec(t *testing.T, cfg server.Config, codec client.Codec) (*client.Client, *httptest.Server) {
	t.Helper()
	srv := server.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Drain)
	return client.New(hs.URL, hs.Client(), client.WithCodec(codec)), hs
}

// TestCrossCodecSnapshotIdentity is the codec-equivalence acceptance
// test: the same stream ingested through the JSON codec and through
// binary frames must leave byte-identical sketch state, proven via
// /v1/snapshot on two servers with identical configs and seeds. The grid
// covers every mergeable (policy none) base sketch in its insertion
// model, plus the signed columns under turnstile where deletions flow
// natively — and the stream includes ids at and above 2^53, where JSON
// needs the string-or-number U64 rule but binary carries native u64.
func TestCrossCodecSnapshotIdentity(t *testing.T) {
	cells := []struct {
		name string
		spec client.TenantSpec
	}{
		{"f2-insertion", client.TenantSpec{Sketch: "f2"}},
		{"kmv-insertion", client.TenantSpec{Sketch: "kmv"}},
		{"countsketch-insertion", client.TenantSpec{Sketch: "countsketch"}},
		{"cc-insertion", client.TenantSpec{Sketch: "cc"}},
		{"f2-turnstile", client.TenantSpec{Sketch: "f2", Model: "turnstile", Lambda: 64}},
		{"countsketch-turnstile", client.TenantSpec{Sketch: "countsketch", Model: "turnstile", Lambda: 64}},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			cfg := server.Config{Shards: 2, Seed: 42}
			jc, _ := bootCodec(t, cfg, client.CodecJSON)
			bc, _ := bootCodec(t, cfg, client.CodecBinary)
			ctx := context.Background()

			for _, c := range []*client.Client{jc, bc} {
				if _, err := c.CreateTenant(ctx, "k", cell.spec); err != nil {
					t.Fatal(err)
				}
			}

			signed := cell.spec.Model == "turnstile"
			rng := rand.New(rand.NewSource(7))
			var batch []client.Update
			for i := 0; i < 4096; i++ {
				u := client.Update{Item: rng.Uint64() >> (rng.Intn(40) + 4), Delta: 1}
				if i%17 == 0 {
					// Ids at and beyond 2^53: JSON must take the string
					// form, binary is native.
					u.Item = (1 << 53) + uint64(i)
				}
				if signed && i%5 == 4 {
					// Delete something previously inserted so turnstile
					// streams genuinely go both ways without breaching the
					// insertion-model floor.
					u = batch[rng.Intn(len(batch))]
					u.Delta = -1
				}
				batch = append(batch, u)
			}
			for off := 0; off < len(batch); off += 512 {
				end := off + 512
				if end > len(batch) {
					end = len(batch)
				}
				for _, c := range []*client.Client{jc, bc} {
					if err := c.Update(ctx, "k", batch[off:end]); err != nil {
						t.Fatal(err)
					}
				}
			}

			jsnap, err := jc.Snapshot(ctx, "k")
			if err != nil {
				t.Fatal(err)
			}
			bsnap, err := bc.Snapshot(ctx, "k")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(jsnap, bsnap) {
				t.Fatalf("snapshots diverge across codecs: json %d bytes, binary %d bytes", len(jsnap), len(bsnap))
			}

			je, err := jc.Estimate(ctx, "k")
			if err != nil {
				t.Fatal(err)
			}
			be, err := bc.Estimate(ctx, "k")
			if err != nil {
				t.Fatal(err)
			}
			if je != be {
				t.Fatalf("estimates diverge across codecs: json %g, binary %g", je, be)
			}
		})
	}
}

// TestCrossCodecQueryAnswers: the same tenant answers the same /v2/query
// batch identically whether the batch travels as JSON or as query/answer
// frames — kinds, items, values, bounds, and robustness state all agree.
func TestCrossCodecQueryAnswers(t *testing.T) {
	srv := server.New(server.Config{Shards: 2, Seed: 5})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Drain)
	jc := client.New(hs.URL, hs.Client(), client.WithCodec(client.CodecJSON))
	bc := client.New(hs.URL, hs.Client(), client.WithCodec(client.CodecBinary))
	ctx := context.Background()

	if _, err := jc.CreateTenant(ctx, "hh", client.TenantSpec{Sketch: "countsketch", Policy: "ring"}); err != nil {
		t.Fatal(err)
	}
	var batch []client.Update
	for i := uint64(1); i <= 40; i++ {
		w := int64(1)
		if i <= 4 {
			w = 500 // unmistakable heavy hitters
		}
		batch = append(batch, client.Update{Item: (1 << 53) + i, Delta: w})
	}
	if err := jc.Update(ctx, "hh", batch); err != nil {
		t.Fatal(err)
	}

	queries := []client.Query{
		{Kind: server.QueryEstimate},
		{Kind: server.QueryPoint, Item: server.U64(1<<53 + 1)},
		{Kind: server.QueryTopK, K: 4},
	}
	jresp, err := jc.Query(ctx, "hh", queries)
	if err != nil {
		t.Fatal(err)
	}
	bresp, err := bc.Query(ctx, "hh", queries)
	if err != nil {
		t.Fatal(err)
	}

	if jresp.Key != bresp.Key || jresp.Sketch != bresp.Sketch ||
		jresp.Policy != bresp.Policy || jresp.Model != bresp.Model {
		t.Fatalf("envelopes diverge: json %+v, binary %+v", jresp, bresp)
	}
	if len(jresp.Answers) != len(bresp.Answers) {
		t.Fatalf("answer counts diverge: json %d, binary %d", len(jresp.Answers), len(bresp.Answers))
	}
	for i := range jresp.Answers {
		ja, ba := jresp.Answers[i], bresp.Answers[i]
		if ja.Kind != ba.Kind || ja.Value != ba.Value || ja.ErrorBound != ba.ErrorBound || ja.Additive != ba.Additive {
			t.Errorf("answer %d diverges: json %+v, binary %+v", i, ja, ba)
		}
		if (ja.Item == nil) != (ba.Item == nil) || (ja.Item != nil && *ja.Item != *ba.Item) {
			t.Errorf("answer %d items diverge", i)
		}
		if len(ja.Items) != len(ba.Items) {
			t.Errorf("answer %d topk lengths diverge: %d vs %d", i, len(ja.Items), len(ba.Items))
			continue
		}
		for j := range ja.Items {
			if ja.Items[j] != ba.Items[j] {
				t.Errorf("answer %d item %d diverges: %+v vs %+v", i, j, ja.Items[j], ba.Items[j])
			}
		}
	}
	if (jresp.Robustness == nil) != (bresp.Robustness == nil) {
		t.Fatalf("robustness presence diverges")
	}
	if jresp.Robustness != nil && *jresp.Robustness != *bresp.Robustness {
		t.Fatalf("robustness diverges: json %+v, binary %+v", *jresp.Robustness, *bresp.Robustness)
	}
	// The ring tenant's topk must surface the planted heavy hitters under
	// both codecs (sanity that the answers are not trivially empty-equal).
	var top []server.ItemWeight
	for _, a := range bresp.Answers {
		if a.Kind == server.QueryTopK {
			top = a.Items
		}
	}
	if len(top) != 4 {
		t.Fatalf("topk answered %d items, want 4", len(top))
	}
	for _, iw := range top {
		if uint64(iw.Item) < 1<<53 || uint64(iw.Item) > 1<<53+4 {
			t.Errorf("topk surfaced item %d outside the planted heavy hitters", uint64(iw.Item))
		}
		if math.Abs(iw.Weight-500) > 250 {
			t.Errorf("topk weight %g for item %d far from planted 500", iw.Weight, uint64(iw.Item))
		}
	}
}

// TestBinaryIngestRejections pins the negotiation edges of /v2/update:
// an unknown Content-Type is a 415 before any body is read, a frame of
// the wrong type is a 400, and errors come back as JSON regardless of
// codec so every client can decode them.
func TestBinaryIngestRejections(t *testing.T) {
	srv := server.New(server.Config{Shards: 1, Seed: 1})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Drain)

	post := func(ct string, body []byte) (int, string) {
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v2/update?key=k", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := post("application/x-msgpack", []byte("x")); code != http.StatusUnsupportedMediaType {
		t.Fatalf("unknown content type: HTTP %d (%s), want 415", code, body)
	}
	if code, body := post(wire.ContentType, []byte("not a frame")); code != http.StatusBadRequest {
		t.Fatalf("garbage frame: HTTP %d (%s), want 400", code, body)
	}
	// A well-formed frame of the wrong type (a query on the update
	// endpoint) must be rejected, not misparsed.
	q := wire.AppendQuery(nil, &wire.QueryRequest{Key: "k", Queries: []wire.Query{{Kind: wire.KindEstimate}}})
	if code, body := post(wire.ContentType, q); code != http.StatusBadRequest {
		t.Fatalf("query frame on update endpoint: HTTP %d (%s), want 400", code, body)
	}
	// Errors are JSON even when the request was binary.
	if _, body := post(wire.ContentType, []byte("not a frame")); !strings.Contains(body, `"error"`) {
		t.Fatalf("binary-request error reply is not JSON: %s", body)
	}
}
