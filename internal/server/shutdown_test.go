package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShutdownOwnsCadenceCheckpoints: with a checkpoint due after every
// update and writers still posting, Shutdown returns only once every
// cadence checkpoint goroutine has finished — none holds its busy flag, none
// writes a checkpoint afterwards, and the data directory, once removed,
// stays removed.
func TestShutdownOwnsCadenceCheckpoints(t *testing.T) {
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
		post := func(url, body string) int {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, strings.NewReader(body)))
			return rec.Code
		}
		if code := post("/v2/keys", `{"key":"k","spec":{"sketch":"kmv"}}`); code/100 != 2 {
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
					if post("/v1/update?key=k", body) != http.StatusOK {
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
		if srv.lookup("k").ckptBusy.Load() {
			t.Fatalf("round %d: a cadence checkpoint goroutine outlived Shutdown", round)
		}
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
