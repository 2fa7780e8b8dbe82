package engine

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/sketch"
)

// recorder is a sketch.BatchUpdater that keeps a copy of every batch the
// shard worker hands it.
type recorder struct {
	mu    sync.Mutex
	calls [][]Update
}

func (r *recorder) UpdateBatch(b []Update) {
	r.mu.Lock()
	r.calls = append(r.calls, slices.Clone(b))
	r.mu.Unlock()
}

func (r *recorder) Update(item uint64, delta int64) {
	r.UpdateBatch([]Update{{Item: item, Delta: delta}})
}
func (r *recorder) SpaceBytes() int { return 0 }
func (r *recorder) Estimate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return float64(len(r.calls))
}

// coalesced is the reference for what a worker hands its estimator: one
// entry per distinct item in first-occurrence order, carrying the net delta.
func coalesced(part []Update) []Update {
	var out []Update
	at := map[uint64]int{}
	for _, u := range part {
		if j, ok := at[u.Item]; ok {
			out[j].Delta += u.Delta
			continue
		}
		at[u.Item] = len(out)
		out = append(out, u)
	}
	return out
}

// TestApplyCutsByBatchAlone pins the engine contract a durable tenant's
// recovery rests on: each shard estimator sees exactly the coalesced parts
// computed from the batches alone — a shard's updates of one batch, in
// batch order, cut every Config.Batch from the part's own start, and every
// Update between batches a part of its own — while another goroutine
// flushes, visits and reads as fast as it can. Where the reads land decides
// when the work runs, never what the estimator sees.
func TestApplyCutsByBatchAlone(t *testing.T) {
	const shards, batch = 3, 8
	var recs []*recorder
	e := New(Config{
		Shards: shards,
		Batch:  batch,
		Seed:   5,
		Factory: func(int64) sketch.Estimator {
			r := &recorder{}
			recs = append(recs, r)
			return r
		},
	})

	rng := rand.New(rand.NewSource(33))
	var batches [][]Update
	for i := 0; i < 400; i++ {
		b := make([]Update, rng.Intn(3*shards*batch))
		for j := range b {
			b[j] = Update{Item: uint64(rng.Intn(24)), Delta: int64(rng.Intn(5)) - 1}
		}
		batches = append(batches, b)
	}
	single := func(i int) bool { return i%3 == 2 } // fed by Update, one update at a time
	want := make([][][]Update, shards)
	for i, b := range batches {
		for k := 0; k < shards; k++ {
			var part []Update
			for _, u := range b {
				if e.shardIndex(u.Item) == k {
					part = append(part, u)
				}
			}
			if single(i) {
				for _, u := range part {
					want[k] = append(want[k], []Update{u})
				}
				continue
			}
			for len(part) > 0 {
				n := min(len(part), batch)
				want[k] = append(want[k], coalesced(part[:n]))
				part = part[n:]
			}
		}
	}

	stop := make(chan struct{})
	var reads sync.WaitGroup
	reads.Add(1)
	go func() {
		defer reads.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				e.Flush()
			case 1:
				_ = e.Visit(func(int, sketch.Estimator) error { return nil })
			case 2:
				_ = e.Estimate()
			}
		}
	}()
	for i, b := range batches {
		if single(i) {
			for _, u := range b {
				e.Update(u.Item, u.Delta)
			}
			continue
		}
		if !e.Apply(b) {
			t.Fatal("Apply = false on an open engine")
		}
	}
	close(stop)
	reads.Wait()
	e.Close()

	for k, r := range recs {
		if len(r.calls) != len(want[k]) {
			t.Fatalf("shard %d saw %d parts, the batches cut %d", k, len(r.calls), len(want[k]))
		}
		for i := range want[k] {
			if !slices.Equal(r.calls[i], want[k][i]) {
				t.Fatalf("shard %d part %d = %v, the batches cut %v", k, i, r.calls[i], want[k][i])
			}
		}
	}
}
