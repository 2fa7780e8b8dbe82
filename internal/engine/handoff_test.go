package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/f0"
	"repro/internal/sketch"
)

// gatedEst blocks inside every Update until release is closed, recording
// the items it was fed — a stand-in for an arbitrarily slow estimator that
// lets the tests park a shard worker mid-batch.
type gatedEst struct {
	release chan struct{}
	entered chan struct{} // signaled once, on the first Update

	mu        sync.Mutex
	seen      []uint64
	enterOnce sync.Once
}

func (g *gatedEst) Update(item uint64, delta int64) {
	g.mu.Lock()
	g.seen = append(g.seen, item)
	g.mu.Unlock()
	g.enterOnce.Do(func() { close(g.entered) })
	<-g.release
}

func (g *gatedEst) Estimate() float64 { return 0 }
func (g *gatedEst) SpaceBytes() int   { return 0 }

func (g *gatedEst) items() []uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]uint64(nil), g.seen...)
}

// TestUpdateHandoffDoesNotConvoy is the regression test for the lock-held
// blocking handoff: with a full queue and a slow estimator, a producer
// stalled on shard backpressure must not hold the append lock, so a second
// producer whose update merely lands in the fresh pending batch completes
// immediately. Against the old code (channel send under the shard mutex)
// the second producer convoys on the lock until the estimator is released,
// and this test times out.
func TestUpdateHandoffDoesNotConvoy(t *testing.T) {
	const batch, sealed = 2, queueDepth + 2
	est := &gatedEst{release: make(chan struct{}), entered: make(chan struct{})}
	e := New(Config{
		Shards:  1,
		Batch:   batch,
		Seed:    1,
		Factory: func(seed int64) sketch.Estimator { return est },
	})

	// Producer 1: queueDepth+2 sealed batches. The first is taken by the
	// worker (which parks inside est.Update), the next queueDepth fill the
	// queue, and the send of the last blocks on backpressure.
	var p1 sync.WaitGroup
	p1.Add(1)
	go func() {
		defer p1.Done()
		for i := uint64(0); i < batch*sealed; i++ {
			e.Update(i, 1)
		}
	}()

	<-est.entered // worker is parked inside the estimator
	// Give producer 1 time to reach the blocking send of its last batch.
	time.Sleep(100 * time.Millisecond)

	// Producer 2: a single update that only appends to the fresh pending
	// batch. It must complete while producer 1 is still blocked.
	done := make(chan struct{})
	go func() {
		e.Update(batch*sealed, 1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Update convoyed on the shard lock behind a producer blocked on backpressure")
	}

	close(est.release)
	p1.Wait()
	e.Close()

	// The handoff restructure must not reorder batches: the estimator sees
	// the producer-1 items in seal order, then producer 2's item from the
	// final pending batch flushed by Close.
	var want []uint64
	for i := uint64(0); i <= batch*sealed; i++ {
		want = append(want, i)
	}
	got := est.items()
	if len(got) != len(want) {
		t.Fatalf("estimator saw %d updates, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch order broken: estimator saw %v, want %v", got, want)
		}
	}
}

// TestApplyAfterClose: Apply reports false, applying nothing, once the
// engine is closed (the drain path a server needs), while Update keeps the
// panic for programmer error.
func TestApplyAfterClose(t *testing.T) {
	e := New(Config{
		Shards:  2,
		Batch:   4,
		Seed:    1,
		Factory: func(seed int64) sketch.Estimator { return f0.NewExact() },
	})
	for i := uint64(0); i < 100; i += 10 {
		batch := make([]Update, 10)
		for j := range batch {
			batch[j] = Update{Item: i + uint64(j), Delta: 1}
		}
		if !e.Apply(batch) {
			t.Fatalf("Apply(%d..) = false before Close", i)
		}
	}
	e.Close()

	if e.Apply([]Update{{Item: 1000, Delta: 1}, {Item: 1001, Delta: 1}}) {
		t.Error("Apply = true after Close")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Update after Close did not panic")
			}
		}()
		e.Update(1, 1)
	}()

	if got := e.Estimate(); got != 100 {
		t.Errorf("estimate after Close = %v, want 100", got)
	}
}

// TestSpaceBytesReflectsOutstandingBuffers: the engine charges only batch
// buffers actually checked out — zero once the pipeline has drained, one
// batch after a single buffered update — rather than a permanent charge
// for a full queue per shard.
func TestSpaceBytesReflectsOutstandingBuffers(t *testing.T) {
	const shards, batch = 2, 8
	e := New(Config{
		Shards:  shards,
		Batch:   batch,
		Seed:    1,
		Factory: func(seed int64) sketch.Estimator { return f0.NewExact() },
	})
	defer e.Close()

	base := func() int {
		total := 0 // each shard's record carries its estimator and its coalescing index
		for _, s := range e.shards {
			s.recMu.Lock()
			total += s.rec.space
			s.recMu.Unlock()
		}
		return total
	}

	for i := uint64(0); i < 1000; i++ {
		e.Update(i, 1)
	}
	e.Flush()
	if got, want := e.SpaceBytes(), base(); got != want {
		t.Errorf("space after Flush = %d, want %d (no outstanding buffers)", got, want)
	}

	e.Update(12345, 1) // one buffered update: exactly one checked-out batch
	if got, want := e.SpaceBytes(), base()+batch*16; got != want {
		t.Errorf("space with one pending batch = %d, want %d", got, want)
	}

	e.Flush()
	if got, want := e.SpaceBytes(), base(); got != want {
		t.Errorf("space after second Flush = %d, want %d", got, want)
	}
}

// TestVisit: fn observes a flushed estimator per shard (their F0s sum to
// the global count), runs serialized with ingest, and keeps working after
// Close. fn may run for several shards at once, so each writes its own
// shard's slot.
func TestVisit(t *testing.T) {
	e := New(Config{
		Shards:  4,
		Batch:   16,
		Seed:    9,
		Factory: func(seed int64) sketch.Estimator { return f0.NewExact() },
	})
	for i := uint64(0); i < 500; i++ {
		e.Update(i, 1)
	}

	perShard := make([]float64, e.Shards())
	visitSum := func() (float64, error) {
		err := e.Visit(func(i int, est sketch.Estimator) error {
			perShard[i] = est.Estimate()
			return nil
		})
		var sum float64
		for _, v := range perShard {
			sum += v
		}
		return sum, err
	}
	sum, err := visitSum()
	if err != nil {
		t.Fatalf("Visit: %v", err)
	}
	if sum != 500 {
		t.Errorf("per-shard F0s sum to %v, want 500", sum)
	}

	e.Close()
	sum, err = visitSum()
	if err != nil {
		t.Fatalf("Visit after Close: %v", err)
	}
	if sum != 500 {
		t.Errorf("per-shard F0s after Close sum to %v, want 500", sum)
	}

	// A post-Close Visit that mutates the estimator (the server's merge
	// path racing a drain) must refresh the published snapshots, or the
	// acknowledged mutation would be invisible to Estimate forever.
	if err := e.Visit(func(i int, est sketch.Estimator) error {
		est.Update(uint64(1000+i), 1) // one new distinct item per shard
		return nil
	}); err != nil {
		t.Fatalf("mutating Visit after Close: %v", err)
	}
	if got := e.Estimate(); got != 504 {
		t.Errorf("Estimate after post-Close mutating Visit = %v, want 504", got)
	}
}

// TestVisitRunsShardsAtOnce: Visit hands fn to every shard before it
// waits, so shard 0's fn can wait for shard 1's to start. A Visit that
// ran the shards one after another would leave shard 0 waiting until the
// timeout.
func TestVisitRunsShardsAtOnce(t *testing.T) {
	e := New(Config{Shards: 2, Seed: 3, Factory: func(int64) sketch.Estimator { return f0.NewExact() }})
	defer e.Close()
	started := make(chan struct{})
	err := e.Visit(func(i int, _ sketch.Estimator) error {
		if i == 1 {
			close(started)
			return nil
		}
		select {
		case <-started:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("shard 1's fn never started while shard 0's ran")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVisitReportsFirstErrorInShardOrder: whichever shard errs first in
// time, Visit reports the lowest-numbered shard's error, and still visits
// every shard.
func TestVisitReportsFirstErrorInShardOrder(t *testing.T) {
	e := New(Config{Shards: 4, Seed: 3, Factory: func(int64) sketch.Estimator { return f0.NewExact() }})
	defer e.Close()
	errOne, errTwo := errors.New("shard 1"), errors.New("shard 2")
	twoErred := make(chan struct{})
	visited := make([]bool, e.Shards())
	err := e.Visit(func(i int, _ sketch.Estimator) error {
		visited[i] = true
		switch i {
		case 1:
			select {
			case <-twoErred:
			case <-time.After(10 * time.Second):
			}
			return errOne
		case 2:
			close(twoErred)
			return errTwo
		}
		return nil
	})
	if !errors.Is(err, errOne) {
		t.Errorf("Visit = %v, want shard 1's error", err)
	}
	for i, v := range visited {
		if !v {
			t.Errorf("shard %d not visited", i)
		}
	}
}
