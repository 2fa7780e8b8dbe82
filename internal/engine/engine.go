// Package engine is a sharded, batched, concurrent ingest pipeline for the
// estimators in this repository. Updates are routed by a salted SplitMix64
// hash of the item to one of S shard workers, each owning an independent
// sketch.Estimator (static or robust), so the frequency vectors of the
// shards partition the stream's frequency vector. A Combiner reassembles
// the global statistic from the per-shard estimates: sums for additive
// statistics (F0, F1, moments), power sums for norms, and the entropy
// chain rule for Shannon entropy — see combine.go for why hash
// partitioning makes each of these exact.
//
// The pipeline shape is shard → part → merge. Apply appends each shard's
// part of a caller's batch to that shard's buffer in one critical section
// and records where it ends; a buffer is sealed at Config.Batch updates and
// at Flush, Visit and Close, and handed to the shard worker over a bounded
// queue (backpressure, never drops). The worker coalesces each part's
// duplicate items before its estimator sees them, so a skewed batch costs
// one update per distinct item per part, and publishes the shard's state as
// one record — estimate, mass, space and flip budget from one instant —
// that Read copies whole, so a reading never mixes two publishes.
// Coalescing is part of what the estimator sees (a robust wrapper flips on
// the coalesced updates), so parts are cut by the caller's batches alone,
// and every Config.Batch updates within a longer one, never by a seal: a
// read decides when the work runs, never what the estimator sees. Update,
// the sketch.Estimator face, is a one-update part; a caller that wants
// coalescing hands Apply its batches. Estimate flushes first. Every method
// is safe for concurrent use.
//
// A shard's published mass (ShardEstimate.Mass) is the Entropy combiner's
// weight, not telemetry: stream-wide mass and deletion counts belong to the
// stream's owner, which knows which batches it acknowledged.
package engine

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/sketch"
)

// Update is one stream update: f[Item] += Delta. It is the shared
// sketch.Update type, so coalesced per-shard batches hand off to a
// sketch.BatchUpdater estimator without copying.
type Update = sketch.Update

const (
	// queueDepth is the number of sealed buffers a shard queues before
	// producers block (backpressure; updates are never dropped): enough to
	// ride out a worker's pause without holding unbounded memory.
	queueDepth = 8
	// refreshEvery is the number of updates a worker applies between
	// refreshes of its published record. Flush and Close always refresh.
	refreshEvery = 4096
)

// Config parameterizes New. Factory is the only required field.
type Config struct {
	// Shards is the number of shard workers (and independent estimator
	// instances). Defaults to GOMAXPROCS. Each shard holds a full-size
	// estimator, so space grows linearly in Shards — the price of
	// parallel ingest.
	Shards int

	// Batch is the number of updates a shard buffer holds before it is
	// handed to the worker, and the longest part the worker coalesces.
	// Defaults to 256.
	Batch int

	// Combine turns the per-shard estimates into the global estimate.
	// Defaults to Sum, which is exact for additive statistics over the
	// hash-partitioned shards (F0, F1, frequency moments).
	Combine Combiner

	// Factory builds the estimator owned by each shard. Shard seeds are
	// derived from Seed by SplitMix64, so instances use independent
	// randomness as sketch.Factory requires.
	Factory sketch.Factory

	// Seed is the root randomness seed for shard estimators and routing.
	Seed int64
}

type op struct {
	batch *buf
	visit func(est sketch.Estimator) // if non-nil: run against the estimator, refresh published state, then sync.Done
	sync  *sync.WaitGroup
}

// buf is a pooled shard buffer: updates and the end of every part they
// form.
type buf struct {
	us   []Update
	ends []int
}

type shard struct {
	ops  chan op
	done chan struct{}

	// mu guards pending/closed — the append critical section. sendMu
	// serializes sends on ops and is always acquired before mu is
	// released, so sealed buffers reach the worker in seal order while a
	// producer blocked on a full queue holds only sendMu, leaving mu free
	// for other producers to keep appending.
	mu      sync.Mutex
	sendMu  sync.Mutex
	pending *buf
	closed  bool

	est  sketch.Estimator // owned by the worker goroutine
	mass int64            // worker-local net Σdelta, the Entropy combiner's weight
	co   sketch.Coalescer // coalescing scratch, worker-local

	// rec is the shard's published record, refreshed every refreshEvery
	// updates and on every Flush/Close. recMu guards it: publish stores it
	// whole and Read copies it whole. Producers never take recMu.
	recMu sync.Mutex
	rec   record
}

// record is one shard's published state, every field read from its
// estimator at the same instant.
type record struct {
	ShardEstimate
	space  int               // the estimator's and the coalescing index's
	robust bool              // the estimator is a sketch.RobustnessReporter
	rob    sketch.Robustness // its flip-budget state, when robust
}

// Engine is a sharded concurrent ingest pipeline. It implements
// sketch.Estimator, so it can stand in for a single estimator anywhere in
// the repository (including inside the experiment harnesses).
type Engine struct {
	shards    []*shard
	salt      uint64
	batch     int
	combine   Combiner
	pool      sync.Pool
	parts     sync.Pool    // *[][]Update, Apply's per-shard scratch
	liveBufs  atomic.Int64 // batch buffers checked out of the pool
	closeOnce sync.Once
}

// getBuf checks a batch buffer out of the pool, counting it as
// outstanding until putBuf returns it.
func (e *Engine) getBuf() *buf {
	e.liveBufs.Add(1)
	return e.pool.Get().(*buf)
}

// putBuf returns a batch buffer to the pool.
func (e *Engine) putBuf(b *buf) {
	b.us, b.ends = b.us[:0], b.ends[:0]
	e.pool.Put(b)
	e.liveBufs.Add(-1)
}

// New starts the shard workers and returns a running engine. Call Close to
// stop the workers and finalize the estimate.
func New(cfg Config) *Engine {
	if cfg.Factory == nil {
		panic("engine: Config.Factory is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 256
	}
	if cfg.Combine == nil {
		cfg.Combine = Sum
	}
	e := &Engine{
		salt:    dist.SplitMix64(uint64(cfg.Seed) ^ 0xA5A5A5A55A5A5A5A),
		batch:   cfg.Batch,
		combine: cfg.Combine,
	}
	e.pool.New = func() any { return &buf{us: make([]Update, 0, cfg.Batch)} }
	e.parts.New = func() any { p := make([][]Update, cfg.Shards); return &p }
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{
			ops:  make(chan op, queueDepth),
			done: make(chan struct{}),
			est:  cfg.Factory(int64(dist.SplitMix64(uint64(cfg.Seed) + uint64(i)))),
		}
		// A part is at most cfg.Batch long, so the index never grows past
		// this: every shard holds, and publishes, the same index whatever
		// parts it has met, restored from a checkpoint or fed since New.
		s.co.Reserve(cfg.Batch)
		s.publish() // estimator space and zero estimate visible before the first refresh
		e.shards = append(e.shards, s)
		go e.run(s)
	}
	return e
}

// run is the shard worker loop: apply buffers part by part, refresh
// periodically and after every visit, refresh once more when ops closes.
func (e *Engine) run(s *shard) {
	defer close(s.done)
	sinceRefresh := 0
	first := true
	for o := range s.ops {
		if b := o.batch; b != nil {
			sinceRefresh += len(b.us) // count pre-coalesce stream updates
			start := 0
			for _, end := range b.ends {
				// Each part coalesced on its own, compacted in place.
				part := s.co.Coalesce(b.us[start:start], b.us[start:end])
				sketch.ApplyBatch(s.est, part)
				for _, u := range part {
					s.mass += u.Delta
				}
				start = end
			}
			e.putBuf(b)
		}
		if o.visit != nil {
			o.visit(s.est)
			s.publish()
			sinceRefresh = 0
			o.sync.Done()
		} else if sinceRefresh >= refreshEvery || first {
			// Publishing after the first batch gives early reads a real
			// (if partial) value instead of the zero estimate.
			s.publish()
			sinceRefresh = 0
		}
		first = false
	}
	s.publish()
}

// MassReporter is implemented by estimators that track the stream mass
// (net Σdelta) themselves, e.g. the CC entropy sketch's exact F1 counter.
// The engine publishes a reporter's own mass as ShardEstimate.Mass instead
// of its worker-side tally, so mass folded in by a Visit-applied Merge
// (which bypasses the worker's update path) weights the shard — the
// Entropy combiner depends on it.
type MassReporter interface {
	Mass() int64
}

// publish builds the shard's record from its estimator and stores it
// whole. Worker goroutine only (or Visit's post-Close inline path, under
// mu).
func (s *shard) publish() {
	r := record{ShardEstimate: ShardEstimate{Estimate: s.est.Estimate(), Mass: s.mass}, space: s.est.SpaceBytes() + s.co.SpaceBytes()}
	if mr, ok := s.est.(MassReporter); ok {
		r.Mass = mr.Mass()
	}
	if rr, ok := s.est.(sketch.RobustnessReporter); ok {
		r.robust, r.rob = true, rr.Robustness()
	}
	s.recMu.Lock()
	s.rec = r
	s.recMu.Unlock()
}

// shardIndex routes an item to its shard index; the salted mix keeps
// routing independent of the estimators' own hash functions.
func (e *Engine) shardIndex(item uint64) int {
	return int(dist.SplitMix64(item^e.salt) % uint64(len(e.shards)))
}

func (e *Engine) shardOf(item uint64) *shard {
	return e.shards[e.shardIndex(item)]
}

// Update implements sketch.Estimator: the update is a part of its own, as
// if Apply had been handed a one-update batch. Update panics if called
// after Close, a programmer error; a caller racing Close uses Apply.
func (e *Engine) Update(item uint64, delta int64) {
	if !e.add(e.shardOf(item), []Update{{Item: item, Delta: delta}}) {
		panic("engine: Update after Close")
	}
}

// Apply hands batch to the shards whole: each shard's part of it, in batch
// order, is appended in one critical section and coalesced and applied on
// its own, so what a shard estimator sees depends on the batches and their
// order alone. Apply reports false once Close has begun; one racing Close
// lands only on the shards Close has not reached, so a caller that needs
// all or nothing orders Apply against Close.
func (e *Engine) Apply(batch []Update) bool {
	parts := e.parts.Get().(*[][]Update)
	defer e.parts.Put(parts)
	for _, u := range batch {
		k := e.shardIndex(u.Item)
		(*parts)[k] = append((*parts)[k], u)
	}
	ok := true
	for k, part := range *parts {
		ok = ok && (len(part) == 0 || e.add(e.shards[k], part))
		(*parts)[k] = part[:0]
	}
	return ok
}

// add appends us to s's pending buffer as a part cut every Config.Batch
// updates, and hands the buffer to the worker once it holds Config.Batch
// updates, blocking only on a full queue. It reports false, appending
// nothing, once s is closed.
func (e *Engine) add(s *shard, us []Update) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if s.pending == nil {
		s.pending = e.getBuf()
	}
	b := s.pending
	for start := 0; start < len(us); start += e.batch {
		b.us = append(b.us, us[start:min(start+e.batch, len(us))]...)
		b.ends = append(b.ends, len(b.us))
	}
	if len(b.us) < e.batch {
		s.mu.Unlock()
		return true
	}
	s.handoff(op{})
	return true
}

// handoff seals s's pending buffer into o and sends o to the worker.
// Caller holds s.mu, which handoff releases once it holds sendMu: seal
// order fixes send order, and a producer stalled on a full queue blocks
// followers only when they too have a buffer to send.
func (s *shard) handoff(o op) {
	o.batch, s.pending = s.pending, nil
	s.sendMu.Lock()
	s.mu.Unlock()
	s.ops <- o
	s.sendMu.Unlock()
}

// Flush is a Visit that runs nothing: it pushes every pending buffer to
// the workers and blocks until all of them have been applied and every
// shard's published record is fresh. After Flush returns, the records
// reflect every Apply and Update that happened-before the Flush call. For
// a shard that is closing or closed, it waits for the worker to exit, so
// reads racing a Close (a server draining under live queries) see the
// fully-drained state, never a stale mid-close record.
func (e *Engine) Flush() {
	_ = e.Visit(func(int, sketch.Estimator) error { return nil })
}

// Visit runs fn against every shard's estimator, serialized with that
// shard's updates: fn sees every update handed to the engine before Visit
// was called, and its shard's published record is refreshed after it
// returns. It is the engine's escape hatch for type-specific estimator
// operations — serializing sketch state for a snapshot, merging a peer's
// sketch in — without giving up the ownership discipline that makes the
// pipeline race-free. fn may mutate the estimator.
//
// Visit hands fn to every open shard's worker before it waits for any, so
// fn may run at once for different shards: state fn shares across shards
// must be indexed by shard or synchronized. Visit reports the first error
// in shard order, visiting every shard regardless. After Close, fn runs
// inline on the caller's goroutine (safe: the workers have exited);
// concurrent post-Close Visits are serialized per shard.
func (e *Engine) Visit(fn func(shard int, est sketch.Estimator) error) error {
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i, s := range e.shards {
		s.mu.Lock()
		if s.closed {
			<-s.done // worker has exited; mu now guards est
			errs[i] = fn(i, s.est)
			s.publish()
			s.mu.Unlock()
			continue
		}
		wg.Add(1)
		s.handoff(op{visit: func(est sketch.Estimator) { errs[i] = fn(i, est) }, sync: &wg})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Estimate implements sketch.Estimator: it flushes all pending updates and
// returns the combined global estimate.
func (e *Engine) Estimate() float64 {
	e.Flush()
	return e.Read().Estimate
}

// Reading is one pass over the shards' published records, one record per
// shard, so all its numbers describe the same state.
type Reading struct {
	Estimate float64         // the Combiner's value over Shards
	Shards   []ShardEstimate // each shard's estimate and mass, in shard order

	// SpaceBytes is the shard estimators' space plus the engine's buffers
	// actually outstanding: batch buffers checked out of the pool (at most
	// queueDepth+3 per shard under full backpressure, none once drained)
	// and each shard's coalescing index, sized at New for a part of
	// Config.Batch updates.
	SpaceBytes int

	// Robustness sums the shards' copies, switches and flip budgets; one
	// exhausted shard exhausts it, and one unbounded (ring) budget makes
	// its Budget -1. Robust is false, and Robustness zero, when the shard
	// estimators are static (no sketch.RobustnessReporter).
	Robustness sketch.Robustness
	Robust     bool
}

// Read returns the shards' last published records as one Reading. It
// never flushes or blocks ingest — a monitoring scraper polling it never
// stalls producers — so it may lag the ingested stream by at most
// refreshEvery updates per shard; call Flush first for an exact
// happened-before reading.
func (e *Engine) Read() Reading {
	r := Reading{Shards: make([]ShardEstimate, len(e.shards))}
	unbounded := false
	for i, s := range e.shards {
		s.recMu.Lock()
		rec := s.rec
		s.recMu.Unlock()
		r.Shards[i] = rec.ShardEstimate
		r.SpaceBytes += rec.space
		if !rec.robust {
			continue
		}
		r.Robust = true
		r.Robustness.Copies += rec.rob.Copies
		r.Robustness.Switches += rec.rob.Switches
		r.Robustness.Budget += rec.rob.Budget
		r.Robustness.Exhausted = r.Robustness.Exhausted || rec.rob.Exhausted
		unbounded = unbounded || rec.rob.Budget < 0
	}
	if unbounded {
		r.Robustness.Budget = -1
	}
	r.SpaceBytes += int(e.liveBufs.Load()) * e.batch * 16 // Update structs
	r.Estimate = e.combine(r.Shards)
	return r
}

// SpaceBytes implements sketch.Estimator: Read's SpaceBytes.
func (e *Engine) SpaceBytes() int { return e.Read().SpaceBytes }

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// ErrNoPointQueries is returned by QueryBatch when the shard estimators do
// not implement the point-query surface (sketch.PointQuerier / TopKQuerier).
var ErrNoPointQueries = errors.New("engine: shard estimators do not support point queries")

// QueryBatch answers a structured read in one Visit: the combined
// estimate, point estimates of f[item] for every requested item, and —
// when k > 0 — the merged global top-k, every answer reading the state
// each shard held when the Visit reached it (the coherence Estimate
// itself provides; concurrent producers may land updates between
// per-shard visits, exactly as they may during Estimate). The shards
// answer at once, each into its own slots.
//
// Point answers come from the owning shard alone. The global estimate of
// a coordinate is the sum of per-shard point estimates, but routing makes
// the sum collapse: every item lives in exactly one shard's frequency
// vector, so the other shards' contributions are exactly-zero coordinates
// read through a noisy sketch — the engine substitutes the known zero
// instead of paying √Shards extra noise. The top-k merges each shard's
// own k largest-magnitude candidates (k per shard suffices: a global
// top-k item is routed to exactly one shard, where it ranks at least as
// high as globally), re-ranked by sketch.CompareRank.
//
// With items empty and k zero any estimator works; otherwise the shard
// estimators must implement sketch.PointQuerier / sketch.TopKQuerier, and
// QueryBatch fails with ErrNoPointQueries when they do not.
func (e *Engine) QueryBatch(items []uint64, k int) (estimate float64, points []float64, topk []sketch.ItemWeight, err error) {
	points = make([]float64, len(items))
	ownedBy := make([][]int, len(e.shards)) // item indices per owning shard
	for j, item := range items {
		o := e.shardIndex(item)
		ownedBy[o] = append(ownedBy[o], j)
	}
	tops := make([][]sketch.ItemWeight, len(e.shards))
	err = e.Visit(func(i int, est sketch.Estimator) error {
		if len(items) > 0 {
			pq, ok := est.(sketch.PointQuerier)
			if !ok {
				return ErrNoPointQueries
			}
			for _, j := range ownedBy[i] {
				points[j] = pq.Query(items[j])
			}
		}
		if k > 0 {
			tk, ok := est.(sketch.TopKQuerier)
			if !ok {
				return ErrNoPointQueries
			}
			tops[i] = tk.TopK(k)
		}
		return nil
	})
	if err != nil {
		return 0, nil, nil, err
	}
	// The Visit's per-shard sync republishes every record, so this
	// reading is the state the answers above saw.
	estimate = e.Read().Estimate
	if k > 0 {
		topk = slices.Concat(tops...)
		slices.SortFunc(topk, sketch.CompareRank)
		if len(topk) > k {
			topk = topk[:k]
		}
	}
	return estimate, points, topk, nil
}

// Close flushes every pending update, stops the shard workers and waits
// for them to exit. The engine stays queryable after Close (Estimate
// returns the final combined estimate). Close is idempotent and safe to
// call concurrently with active producers — the mu→sendMu handoff
// protocol serializes it against in-flight sends, and producers that
// arrive after it observe the closed state (Apply reports false, Update
// panics); that is the drain path a server shutting down under live
// traffic relies on.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		for _, s := range e.shards {
			s.mu.Lock()
			s.closed = true
			s.handoff(op{}) // waits out any producer mid-handoff; none follows
			close(s.ops)
		}
		for _, s := range e.shards {
			<-s.done
		}
	})
}
