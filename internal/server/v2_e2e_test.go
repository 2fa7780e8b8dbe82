package server_test

import (
	"context"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/stream"
)

// TestV2CreateTenantEcho: POST /v2/keys resolves the declarative spec —
// defaults applied — and echoes it, with the seed withheld; conflicting
// explicit fields against an existing tenant are a 409, inherited fields
// are not.
func TestV2CreateTenantEcho(t *testing.T) {
	_, c := boot(t, server.Config{Shards: 2, Eps: 0.2, Delta: 0.05, N: 1 << 20, Seed: 5, MaxKeys: 8})
	ctx := context.Background()

	ks, err := c.CreateTenant(ctx, "hh", client.TenantSpec{
		Sketch: "countsketch", Policy: "ring", Eps: 0.1, Shards: 1, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ks.Sketch != "countsketch" || ks.Policy != "ring" {
		t.Errorf("cell not echoed: %s+%s", ks.Sketch, ks.Policy)
	}
	if ks.Spec == nil {
		t.Fatal("KeyStats does not echo the resolved spec")
	}
	if ks.Spec.Eps != 0.1 || ks.Spec.Shards != 1 {
		t.Errorf("explicit fields not echoed: %+v", ks.Spec)
	}
	if ks.Spec.Delta != 0.05 || uint64(ks.Spec.N) != 1<<20 {
		t.Errorf("defaults not echoed: %+v", ks.Spec)
	}
	if ks.Spec.Seed != 0 {
		t.Errorf("tenant seed leaked through KeyStats: %d", ks.Spec.Seed)
	}
	if !ks.PointQueries {
		t.Error("countsketch tenant does not report point queries")
	}

	// Idempotent re-declare with agreeing fields; omitted fields inherit.
	if _, err := c.CreateTenant(ctx, "hh", client.TenantSpec{Sketch: "countsketch", Policy: "ring"}); err != nil {
		t.Errorf("idempotent re-create failed: %v", err)
	}
	// An explicitly conflicting eps is a 409.
	if _, err := c.CreateTenant(ctx, "hh", client.TenantSpec{Sketch: "countsketch", Policy: "ring", Eps: 0.3}); client.StatusCode(err) != 409 {
		t.Errorf("conflicting eps: err = %v, want HTTP 409", err)
	}
	// Naming the seed the tenant actually runs under matches (the
	// effective root resolves into the stored spec); a different seed
	// conflicts.
	if _, err := c.CreateTenant(ctx, "hh", client.TenantSpec{Sketch: "countsketch", Policy: "ring", Seed: 99}); err != nil {
		t.Errorf("re-declare with the tenant's own seed failed: %v", err)
	}
	// The 409 must not disclose the stored seed: echoing it would hand a
	// probing client the per-tenant randomness in one request.
	if _, err := c.CreateTenant(ctx, "hh", client.TenantSpec{Sketch: "countsketch", Policy: "ring", Seed: 100}); client.StatusCode(err) != 409 {
		t.Errorf("conflicting seed: err = %v, want HTTP 409", err)
	} else if strings.Contains(err.Error(), "99") {
		t.Errorf("seed conflict error leaks the stored seed: %v", err)
	}
	// A tenant created without an explicit seed stores the server root,
	// so naming that root later is also idempotent.
	if _, err := c.CreateTenant(ctx, "defaulted", client.TenantSpec{Sketch: "kmv"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "defaulted", client.TenantSpec{Sketch: "kmv", Seed: 5}); err != nil {
		t.Errorf("re-declare with the server root seed failed: %v", err)
	}
	// Malformed specs are 400s.
	if _, err := c.CreateTenant(ctx, "bad", client.TenantSpec{Sketch: "f2", Eps: -2}); client.StatusCode(err) != 400 {
		t.Errorf("negative eps: err = %v, want HTTP 400", err)
	}
	if _, err := c.CreateTenant(ctx, "bad", client.TenantSpec{Shards: server.MaxTenantShards + 1}); client.StatusCode(err) != 400 {
		t.Errorf("over-cap shards: err = %v, want HTTP 400", err)
	}
	// GET /v1/stats carries the same resolved spec.
	st, err := c.KeyStats(ctx, "hh")
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec == nil || st.Spec.Eps != 0.1 || st.Spec.Seed != 0 {
		t.Errorf("/v1/stats spec echo wrong: %+v", st.Spec)
	}
}

// TestV2QueryBatch: one POST /v2/query batch mixes estimate, point and
// topk queries, each answer typed and carrying the tenant's ε-derived
// error bound; structural errors map onto 400/404.
func TestV2QueryBatch(t *testing.T) {
	const eps = 0.15
	_, c := boot(t, server.Config{Shards: 2, Delta: 0.05, N: 1 << 20, Seed: 3, MaxKeys: 8})
	ctx := context.Background()

	if _, err := c.CreateTenant(ctx, "hot", client.TenantSpec{Sketch: "countsketch", Eps: eps}); err != nil {
		t.Fatal(err)
	}
	truth := stream.NewFreq()
	gen := stream.NewZipf(1<<10, 30000, 1.3, 7)
	var ups []client.Update
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		truth.Apply(u)
		ups = append(ups, client.Update{Item: u.Item, Delta: u.Delta})
	}
	if err := c.Update(ctx, "hot", ups); err != nil {
		t.Fatal(err)
	}

	resp, err := c.Query(ctx, "hot", []client.Query{
		{Kind: server.QueryEstimate},
		{Kind: server.QueryPoint, Item: 0},
		{Kind: server.QueryPoint, Item: 1 << 60}, // never seen: answer ≈ 0
		{Kind: server.QueryTopK, K: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 4 {
		t.Fatalf("4 queries, %d answers", len(resp.Answers))
	}
	est := resp.Answers[0]
	if est.Kind != server.QueryEstimate || est.ErrorBound != eps {
		t.Errorf("estimate answer %+v, want kind estimate with error bound %v", est, eps)
	}
	if re := relErr(est.Value, truth.Fp(2)); re > eps {
		t.Errorf("F2 estimate %v vs truth %v: rel err %.3f", est.Value, truth.Fp(2), re)
	}
	bound := eps * truth.L2()
	p0 := resp.Answers[1]
	if p0.Kind != server.QueryPoint || p0.Item == nil || uint64(*p0.Item) != 0 {
		t.Errorf("point answer did not echo its item: %+v", p0)
	}
	if math.Abs(p0.Value-float64(truth.Count(0))) > bound {
		t.Errorf("point f[0] = %v, true %d (bound %v)", p0.Value, truth.Count(0), bound)
	}
	if p0.ErrorBound <= 0 || p0.ErrorBound > 2*bound {
		t.Errorf("point error bound %v implausible vs ε·‖f‖₂ = %v", p0.ErrorBound, bound)
	}
	if pMiss := resp.Answers[2]; math.Abs(pMiss.Value) > bound {
		t.Errorf("point estimate of an absent item = %v (bound %v)", pMiss.Value, bound)
	}
	top := resp.Answers[3]
	if top.Kind != server.QueryTopK || len(top.Items) != 5 {
		t.Fatalf("topk answer %+v, want 5 items", top)
	}
	if uint64(top.Items[0].Item) != 0 {
		t.Errorf("top-1 item = %d, want 0 on a Zipf(1.3) stream", uint64(top.Items[0].Item))
	}
	for _, iw := range top.Items {
		if math.Abs(iw.Weight-float64(truth.Count(uint64(iw.Item)))) > bound {
			t.Errorf("topk weight for %d = %v, true %d (bound %v)",
				uint64(iw.Item), iw.Weight, truth.Count(uint64(iw.Item)), bound)
		}
	}

	// Structural and routing errors.
	if _, err := c.Query(ctx, "absent", []client.Query{{Kind: server.QueryEstimate}}); client.StatusCode(err) != 404 {
		t.Errorf("query of unknown key: err = %v, want HTTP 404", err)
	}
	if _, err := c.Query(ctx, "hot", nil); client.StatusCode(err) != 400 {
		t.Errorf("empty batch: err = %v, want HTTP 400", err)
	}
	if _, err := c.Query(ctx, "hot", []client.Query{{Kind: "frequency"}}); client.StatusCode(err) != 400 {
		t.Errorf("unknown kind: err = %v, want HTTP 400", err)
	}
	if _, err := c.CreateTenant(ctx, "norms", client.TenantSpec{Sketch: "f2", Policy: "ring"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "norms", []client.Query{{Kind: server.QueryPoint, Item: 1}}); client.StatusCode(err) != 400 {
		t.Errorf("point query on an f2 tenant: err = %v, want HTTP 400", err)
	}
	// Estimate queries still work on non-point tenants.
	if resp, err := c.Query(ctx, "norms", []client.Query{{Kind: server.QueryEstimate}}); err != nil || len(resp.Answers) != 1 {
		t.Errorf("estimate query on f2 tenant: %v / %+v", err, resp)
	}
}

// TestV2PointQueryCells: of the countsketch column, the static sketch and
// the Theorem 6.5 ring answer point and topk; switching and paths publish
// their robust L2 scalar and refuse per-coordinate reads with one 400 body
// whichever codec carried the batch. /v2/keys and /v1/stats say which is
// which before a client has to find out.
func TestV2PointQueryCells(t *testing.T) {
	srv := server.New(server.Config{Shards: 1, Eps: 0.3, Delta: 0.05, N: 1 << 16, Seed: 3, MaxKeys: 8, FlipBudget: 32})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Drain)
	jc := client.New(hs.URL, hs.Client(), client.WithCodec(client.CodecJSON))
	bc := client.New(hs.URL, hs.Client(), client.WithCodec(client.CodecBinary))
	ctx := context.Background()

	var ups []client.Update
	for i := uint64(0); i < 400; i++ {
		ups = append(ups, client.Update{Item: i % 7, Delta: 1}, client.Update{Item: 100 + i, Delta: 1})
	}
	for _, tc := range []struct {
		policy string
		points bool
	}{
		{"none", true},
		{"ring", true},
		{"switching", false},
		{"paths", false},
	} {
		key := "cs-" + tc.policy
		ks, err := jc.CreateTenant(ctx, key, client.TenantSpec{Sketch: "countsketch", Policy: tc.policy})
		if err != nil {
			t.Fatal(err)
		}
		if ks.PointQueries != tc.points {
			t.Errorf("countsketch+%s: /v2/keys echoes point_queries=%v, want %v", tc.policy, ks.PointQueries, tc.points)
		}
		if st, err := jc.KeyStats(ctx, key); err != nil || st.PointQueries != tc.points {
			t.Errorf("countsketch+%s: /v1/stats reports point_queries=%v (%v), want %v", tc.policy, st.PointQueries, err, tc.points)
		}
		if err := bc.Update(ctx, key, ups); err != nil {
			t.Fatal(err)
		}
		if resp, err := bc.Query(ctx, key, []client.Query{{Kind: server.QueryEstimate}}); err != nil || len(resp.Answers) != 1 || resp.Answers[0].Value <= 0 {
			t.Errorf("countsketch+%s: estimate query: %v / %+v", tc.policy, err, resp)
		}
		for _, q := range []client.Query{{Kind: server.QueryPoint, Item: 3}, {Kind: server.QueryTopK, K: 2}} {
			batch := []client.Query{{Kind: server.QueryEstimate}, q}
			jresp, jerr := jc.Query(ctx, key, batch)
			bresp, berr := bc.Query(ctx, key, batch)
			if tc.points {
				if jerr != nil || berr != nil || len(jresp.Answers) != 2 || len(bresp.Answers) != 2 {
					t.Errorf("countsketch+%s: %s query: json %v, frame %v", tc.policy, q.Kind, jerr, berr)
				}
				continue
			}
			if client.StatusCode(jerr) != 400 || client.StatusCode(berr) != 400 || jerr.Error() != berr.Error() {
				t.Errorf("countsketch+%s: %s query: json %v, frame %v; want the same HTTP 400", tc.policy, q.Kind, jerr, berr)
			} else if !strings.Contains(jerr.Error(), "countsketch+"+tc.policy) || !strings.Contains(jerr.Error(), "countsketch+none and countsketch+ring do") {
				t.Errorf("countsketch+%s: refusal %q does not name the cell and the two that answer", tc.policy, jerr)
			}
		}
	}
}

// TestPerTenantEpsSpaceAndAccuracy: the point of per-tenant specs — two
// tenants of the same sketch × policy cell, declared at different ε on
// the same server, occupy measurably different space and each holds its
// own error bound on the same stream.
func TestPerTenantEpsSpaceAndAccuracy(t *testing.T) {
	_, c := boot(t, server.Config{Shards: 2, Delta: 0.05, N: 1 << 20, Seed: 9, MaxKeys: 8})
	ctx := context.Background()

	const coarseEps, fineEps = 0.4, 0.1
	if _, err := c.CreateTenant(ctx, "coarse", client.TenantSpec{Sketch: "f2", Policy: "ring", Eps: coarseEps}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "fine", client.TenantSpec{Sketch: "f2", Policy: "ring", Eps: fineEps}); err != nil {
		t.Fatal(err)
	}

	truth := stream.NewFreq()
	gen := stream.NewZipf(1<<11, 25000, 1.1, 13)
	var ups []client.Update
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		truth.Apply(u)
		ups = append(ups, client.Update{Item: u.Item, Delta: u.Delta})
	}
	for _, key := range []string{"coarse", "fine"} {
		if err := c.Update(ctx, key, ups); err != nil {
			t.Fatal(err)
		}
	}

	// Each tenant holds its own declared bound on the robust L2 estimate.
	for _, tc := range []struct {
		key string
		eps float64
	}{{"coarse", coarseEps}, {"fine", fineEps}} {
		got, err := c.Estimate(ctx, tc.key)
		if err != nil {
			t.Fatal(err)
		}
		if re := relErr(got, truth.L2()); re > tc.eps {
			t.Errorf("%s (ε=%.2f) estimate %v vs truth %v: rel err %.3f", tc.key, tc.eps, got, truth.L2(), re)
		}
	}

	// The ε=0.1 tenant pays for its accuracy in space — visibly, not
	// marginally: ring copies scale like ε⁻¹log ε⁻¹ and the inner AMS
	// sketches like ε⁻², so 4× tighter ε must cost well over 2× the bytes.
	coarse, err := c.KeyStats(ctx, "coarse")
	if err != nil {
		t.Fatal(err)
	}
	fine, err := c.KeyStats(ctx, "fine")
	if err != nil {
		t.Fatal(err)
	}
	if fine.SpaceBytes < 2*coarse.SpaceBytes {
		t.Errorf("per-tenant sizing not reflected in space: fine ε=%.2f %d bytes vs coarse ε=%.2f %d bytes",
			fineEps, fine.SpaceBytes, coarseEps, coarse.SpaceBytes)
	}
	if coarse.Spec.Eps != coarseEps || fine.Spec.Eps != fineEps {
		t.Errorf("stats do not echo the per-tenant eps: %v / %v", coarse.Spec.Eps, fine.Spec.Eps)
	}
}

// TestV2LargeItemsOverHTTP: items above 2^53 survive the full
// client → server → estimate path (the string-encoding rule end to end).
func TestV2LargeItemsOverHTTP(t *testing.T) {
	_, c := boot(t, server.Config{Shards: 1, Seed: 1, MaxKeys: 4})
	ctx := context.Background()
	if _, err := c.CreateTenant(ctx, "big", client.TenantSpec{Sketch: "kmv"}); err != nil {
		t.Fatal(err)
	}
	var ups []client.Update
	for i := uint64(0); i < 500; i++ {
		ups = append(ups, client.Update{Item: (1 << 63) + i, Delta: 1})
	}
	if err := c.Update(ctx, "big", ups); err != nil {
		t.Fatal(err)
	}
	got, err := c.Estimate(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	// 500 distinct ids above 2^63: were ids collapsing through a float64
	// path, the distinct count would crater.
	if re := relErr(got, 500); re > 0.3 {
		t.Errorf("distinct count of 2^63-range items = %v, want ≈500 (rel err %.3f)", got, re)
	}
}

// TestCreateRefusesTenantBeyondStateCap: a tenant is admitted by what it
// will cost. Each per-field cap passes these two bodies; their product is
// 10¹¹ counters per F2 row, and 10⁶ copies of a 2 MB sketch per shard. Both
// must be a 400 before anything proportional to the request is allocated
// (building the first is a fatal out-of-memory error, not a panic a test
// could recover), must create nothing, and must leave the server serving.
func TestCreateRefusesTenantBeyondStateCap(t *testing.T) {
	srv := server.New(server.Config{Seed: 5})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Drain)
	c := client.New(hs.URL, hs.Client())
	for _, body := range []string{
		`{"key":"a","spec":{"sketch":"f2","policy":"none","eps":0.00001}}`,
		`{"key":"a","spec":{"sketch":"f2","policy":"switching","flip_budget":1000000}}`,
	} {
		resp, err := hs.Client().Post(hs.URL+"/v2/keys", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 || !strings.Contains(string(msg), "tenant spec: projected state") {
			t.Errorf("POST /v2/keys %s: HTTP %d %s; want 400 tenant spec: projected state …", body, resp.StatusCode, msg)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 0 || len(st.Tenants) != 0 {
		t.Errorf("refused creates left %d tenants behind: %+v", st.Keys, st.Tenants)
	}
	if _, err := c.CreateTenant(context.Background(), "a", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Errorf("default-sized tenant after the refusals: %v", err)
	}
}
