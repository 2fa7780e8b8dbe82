package server_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/waltest"
)

// journaled is a durable server behind a loopback listener, with the raw
// /v2/query body of each of its tenants one call away.
type journaled struct {
	srv *server.Server
	c   *client.Client
	url string
}

func openJournaled(t *testing.T, cfg server.Config) journaled {
	t.Helper()
	srv, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Drain)
	return journaled{srv, client.New(hs.URL, hs.Client()), hs.URL}
}

// answer is the /v2/query body for key: the estimate, a top-k where the
// tenant answers one, and the robustness state every answer carries.
func (j journaled) answer(t *testing.T, key string, topk bool) []byte {
	t.Helper()
	body := `{"key":"` + key + `","queries":[{"kind":"estimate"}]}`
	if topk {
		body = `{"key":"` + key + `","queries":[{"kind":"estimate"},{"kind":"topk","k":8}]}`
	}
	resp, err := http.Post(j.url+"/v2/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %s: HTTP %d: %s", key, resp.StatusCode, data)
	}
	return data
}

// zipfBatches cuts a Zipf stream, heavy in repeats so coalescing matters,
// into batches of size updates.
func zipfBatches(seed int64, batches, size int) [][]client.Update {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<12)
	out := make([][]client.Update, batches)
	for i := range out {
		out[i] = make([]client.Update, size)
		for j := range out[i] {
			out[i][j] = client.Update{Item: zipf.Uint64(), Delta: 1}
		}
	}
	return out
}

// TestReadsDoNotShapeTheTenant: a tenant is a function of its journal.
// Every tenant here is read after every batch, the server crashes (Drain,
// no Shutdown, so nothing is checkpointed), and the recovered server,
// which replays the log without a read in between, must answer every
// /v2/query byte for byte as before the crash: estimate, top-k and the
// flip-budget state. The cells are the ones whose state depends on how the
// engine cuts their updates: every robust wrapper, and CountSketch's
// arrival-ordered candidate pool.
func TestReadsDoNotShapeTheTenant(t *testing.T) {
	cells := []client.TenantSpec{
		{Sketch: "f2", Policy: "switching"},
		{Sketch: "f2", Policy: "ring"},
		{Sketch: "f2", Policy: "paths"},
		{Sketch: "kmv", Policy: "switching"},
		{Sketch: "countsketch", Policy: "ring"},
		{Sketch: "countsketch"},
	}
	cfg := durableCfg(t.TempDir())
	live := openJournaled(t, cfg)
	ctx := context.Background()
	key := func(ts client.TenantSpec) string { return ts.Sketch + "+" + ts.Policy }
	for _, ts := range cells {
		if _, err := live.c.CreateTenant(ctx, key(ts), ts); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[string][]byte)
	for _, b := range zipfBatches(81, 60, 100) {
		for _, ts := range cells {
			if err := live.c.Update(ctx, key(ts), b); err != nil {
				t.Fatal(err)
			}
			want[key(ts)] = live.answer(t, key(ts), ts.Sketch == "countsketch")
		}
	}
	live.srv.Drain() // the crash: no final checkpoint, the log is all there is

	cfg.DataDir = waltest.Crash(t, cfg.DataDir)
	recovered := openJournaled(t, cfg)
	for _, ts := range cells {
		if got := recovered.answer(t, key(ts), ts.Sketch == "countsketch"); !bytes.Equal(got, want[key(ts)]) {
			t.Errorf("%s: recovered answer\n%s, before the crash\n%s", key(ts), got, want[key(ts)])
		}
	}
}

// TestConcurrentWritersApplyInLogOrder: four writers race batches into one
// f2+switching tenant. Whatever order they land in, the log records it and
// the engine applies it, so the recovered tenant equals the live one over
// every seed.
func TestConcurrentWritersApplyInLogOrder(t *testing.T) {
	const seeds, writers, batches = 30, 4, 24
	ctx := context.Background()
	ts := client.TenantSpec{Sketch: "f2", Policy: "switching"}
	for seed := int64(0); seed < seeds; seed++ {
		cfg := durableCfg(t.TempDir())
		live := openJournaled(t, cfg)
		if _, err := live.c.CreateTenant(ctx, "w", ts); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int64) {
				defer wg.Done()
				for _, b := range zipfBatches(seed*writers+w, batches, 100) {
					if err := live.c.Update(ctx, "w", b); err != nil {
						errs <- err
						return
					}
				}
			}(int64(w))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		want := live.answer(t, "w", false)
		live.srv.Drain()

		cfg.DataDir = waltest.Crash(t, cfg.DataDir)
		if got := openJournaled(t, cfg).answer(t, "w", false); !bytes.Equal(got, want) {
			t.Errorf("seed %d: recovered answer\n%s, the live tenant\n%s", seed, got, want)
		}
	}
}
