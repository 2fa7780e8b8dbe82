package server_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/server"
)

// TestConcurrentIngestAndDrain: many producers race a mid-stream Drain.
// Every request must resolve to either full acceptance or a retryable
// drain error — never a panic or a torn response. Run under -race this
// also exercises the engine handoff and the tenant map locking.
func TestConcurrentIngestAndDrain(t *testing.T) {
	srv, c := boot(t, server.Config{Shards: 2, Batch: 16, Seed: 1, MaxKeys: 16})
	ctx := context.Background()
	for _, key := range []string{"even", "odd"} {
		if _, err := c.CreateTenant(ctx, key, client.TenantSpec{Sketch: "kmv"}); err != nil {
			t.Fatal(err)
		}
	}

	const producers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			key := []string{"even", "odd"}[p%2]
			for i := 0; i < 50; i++ {
				ups := make([]client.Update, 20)
				for j := range ups {
					ups[j] = client.Update{Item: uint64(p*10000 + i*100 + j), Delta: 1}
				}
				if err := c.Update(ctx, key, ups); err != nil {
					if code := client.StatusCode(err); code != 503 {
						t.Errorf("producer %d: unexpected error %v (HTTP %d)", p, err, code)
					}
					return // server is draining; stop producing
				}
				if i%10 == 0 {
					if _, err := c.Peek(ctx, key); err != nil {
						t.Errorf("producer %d peek: %v", p, err)
					}
				}
			}
		}(p)
	}
	close(start)
	srv.Drain() // races the producers by design
	wg.Wait()

	// Post-drain reads still serve.
	for _, key := range []string{"even", "odd"} {
		if _, err := c.Estimate(ctx, key); err != nil {
			t.Errorf("estimate(%s) after drain: %v", key, err)
		}
	}
}
