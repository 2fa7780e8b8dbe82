package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// serve runs one request through h and returns its status code.
func serve(h http.Handler, method, url, body string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
	return rec.Code
}

// TestNothingWritesAfterShutdown: with a checkpoint due after every update
// and writers still posting, nothing writes a checkpoint once Shutdown has
// returned, and the data directory, once removed, stays removed.
func TestNothingWritesAfterShutdown(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	base := t.TempDir()
	for round := 0; round < rounds; round++ {
		dir := filepath.Join(base, strconv.Itoa(round))
		srv, err := Open(Config{Shards: 1, Seed: 1, DataDir: dir, Fsync: "none", CheckpointEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		if code := serve(h, http.MethodPost, "/v2/keys", `{"key":"k","spec":{"sketch":"kmv"}}`); code/100 != 2 {
			t.Fatalf("create: HTTP %d", code)
		}
		var acked atomic.Int64
		var writers sync.WaitGroup
		for g := 0; g < 4; g++ {
			writers.Add(1)
			go func(g int) {
				defer writers.Done()
				for i := 0; i < 64; i++ {
					body := fmt.Sprintf(`{"updates":[{"item":%d,"delta":1}]}`, g<<16|i)
					if serve(h, http.MethodPost, "/v1/update?key=k", body) != http.StatusOK {
						return // draining
					}
					acked.Add(1)
				}
			}(g)
		}
		for acked.Load() < 8 {
			runtime.Gosched()
		}
		if err := srv.Shutdown(); err != nil {
			t.Fatalf("round %d: shutdown: %v", round, err)
		}
		written := srv.ckptWrites.Load()
		if err := os.RemoveAll(dir); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		writers.Wait()
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("round %d: data directory reappeared after Shutdown (stat: %v)", round, err)
		}
		if got := srv.ckptWrites.Load(); got != written {
			t.Fatalf("round %d: %d checkpoint writes after Shutdown returned", round, got-written)
		}
	}
}

// TestDrainFreezesTheKeyspace: once Drain has returned, no write changes
// which tenant a key maps to or what the log holds — a DELETE is a 503 and a
// shipment the draining error, nothing is journaled — and Shutdown writes
// exactly one checkpoint per mergeable tenant.
func TestDrainFreezesTheKeyspace(t *testing.T) {
	srv, err := Open(Config{Shards: 1, Seed: 1, DataDir: t.TempDir(), Fsync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for key, spec := range map[string]string{"a": `"f2"`, "b": `"kmv"`, "r": `"f2","policy":"switching"`} {
		if code := serve(h, http.MethodPost, "/v2/keys", `{"key":"`+key+`","spec":{"sketch":`+spec+`}}`); code/100 != 2 {
			t.Fatalf("create %s: HTTP %d", key, code)
		}
		if code := serve(h, http.MethodPost, "/v1/update?key="+key, `{"updates":[{"item":7,"delta":1}]}`); code != http.StatusOK {
			t.Fatalf("update %s: HTTP %d", key, code)
		}
	}
	sh, err := srv.ShipTenant("b")
	if err != nil {
		t.Fatal(err)
	}

	srv.Drain()
	head, written := srv.wal.HeadLSN(), srv.ckptWrites.Load()
	if code := serve(h, http.MethodDelete, "/v1/keys?key=a", ""); code != http.StatusServiceUnavailable {
		t.Errorf("DELETE after Drain: HTTP %d, want 503", code)
	}
	for _, key := range []string{"a", "c"} { // replacing a held tenant, and mapping a new key
		if err := srv.ApplyShipment(key, sh.Spec, sh.State, sh.Mass, sh.Deleted); !errors.Is(err, errDraining) {
			t.Errorf("shipment for %q after Drain: %v, want %v", key, err, errDraining)
		}
	}
	if got := srv.wal.HeadLSN(); got != head {
		t.Errorf("log head moved from %d to %d after Drain", head, got)
	}
	if got := srv.Keys(); !reflect.DeepEqual(got, []string{"a", "b", "r"}) {
		t.Errorf("keys after Drain: %v, want [a b r]", got)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := srv.ckptWrites.Load() - written; got != 2 {
		t.Errorf("Shutdown wrote %d checkpoints, want one per mergeable tenant (2)", got)
	}
}
