package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sketch"
)

// Lagged is a set of estimator instances that all owe the same stream but
// need not be current at the same moment: updates land in one shared
// bounded lag buffer, each instance remembers the prefix of it already
// applied, and an instance catches up — through its batch kernel when it
// has one — only when it is about to be read (Current) or when the buffer
// fills (Drain: copy-outer, update-inner, so each instance's state stays
// hot in cache while it chews through the backlog, and the copies that owe
// the whole buffer are spread over up to GOMAXPROCS goroutines, since they
// share nothing but the buffer they read). Every instance still
// ingests every update it is responsible for, in stream order, so whatever
// is read from a Current instance is update-for-update what the
// synchronous formulation would have produced.
//
// On a skewed stream most of a lag buffer repeats items already in it, so
// when the instances declare sketch.CoalesceInvariant, or take a batch in
// both forms through sketch.CoalescedUpdater, every catch-up is coalesced:
// a Drain coalesces the buffer once and feeds that to every instance that
// owes all of it, and the few that hold a prefix (stepped since the last
// drain, replaced mid-buffer), like a catch-up outside a drain, replay
// their own suffix coalesced. A CoalescedUpdater is handed the raw suffix
// beside the coalesced one, for the state that depends on arrival order.
// The coalescer's index is stamped per call rather than cleared, so a
// catch-up costs its own suffix even right after a drain has grown the
// index to the whole buffer.
//
// An instance that has seen nothing is its constructor's, so a slot need
// not be built before it is read: until the first Drain the buffer holds
// the whole stream, and a slot built then and fed it from its start ends
// where one built up front would. The slots NewLagged is not given are
// owed, built (see Owe) when first read or by the first Drain, which builds
// every one left before it empties the buffer.
//
// Switcher keeps its trailing copies in one (a dense one owes all but the
// first), robust.HeavyHitters its Theorem 6.5 CountSketch ring; both bound
// it at PendingCap.
type Lagged struct {
	instances []sketch.Estimator // nil once dropped, and until built
	applied   []int              // per instance: prefix of pending already applied
	pending   []sketch.Update    // grows lazily toward bound: an idle tenant does not pay for it
	bound     int
	coalesce  bool             // the instances declare sketch.CoalesceInvariant or implement sketch.CoalescedUpdater
	co        sketch.Coalescer // catch-up scratch: item index …
	net       []sketch.Update  // … and the coalesced suffix, allocated by the first catch-up that needs it

	// Slots from built on are owed: not built yet, each owing the whole
	// stream since NewLagged, which pending still holds, since the first
	// Drain builds them all. build (see Owe) makes slot i, restarting spare
	// (the instance dropped last, or nil) in place when it can.
	build func(i int, spare sketch.Estimator) sketch.Estimator
	built int
	spare sketch.Estimator
}

// NewLagged takes ownership of the instances, none of which has seen an
// update; bound is how many updates an instance may fall behind before
// Full asks for a Drain. The first instance must be there; the slots after
// the last one given are owed, and Owe says how to build them.
func NewLagged(instances []sketch.Estimator, bound int) Lagged {
	ci, ok := instances[0].(sketch.CoalesceInvariant)
	_, split := instances[0].(sketch.CoalescedUpdater)
	built := 0
	for built < len(instances) && instances[built] != nil {
		built++
	}
	return Lagged{
		instances: instances,
		applied:   make([]int, len(instances)),
		bound:     bound,
		coalesce:  split || ok && ci.CoalesceInvariant(),
		built:     built,
	}
}

// Owe sets how the owed slots are built: build(i, spare) makes slot i,
// restarting spare in place when it can, when the slot is first read
// (Current) or at the first Drain, whichever comes first.
func (l *Lagged) Owe(build func(i int, spare sketch.Estimator) sketch.Estimator) { l.build = build }

// buildTo builds every owed slot below n, in slot order. A slot built here
// owes the buffer from its start: applied is still 0 for it.
func (l *Lagged) buildTo(n int) {
	for ; l.built < n; l.built++ {
		l.instances[l.built] = l.build(l.built, l.spare)
		l.spare = nil
	}
}

// Len returns the number of instance slots, dropped ones included.
func (l *Lagged) Len() int { return len(l.instances) }

// Push buffers one update for every instance.
func (l *Lagged) Push(item uint64, delta int64) {
	l.pending = append(l.pending, sketch.Update{Item: item, Delta: delta})
}

// Step is Push for a caller that needs instance i exact after every
// update: the update is buffered for the others and applied to i at once.
// i must be current, which it is after Current(i), a Drain, or a Step.
func (l *Lagged) Step(i int, item uint64, delta int64) sketch.Estimator {
	l.Push(item, delta)
	inst := l.instances[i]
	inst.Update(item, delta)
	l.applied[i] = len(l.pending)
	return inst
}

// Full reports whether the buffer has reached its bound; the caller Drains
// at a point where no instance is mid-read.
func (l *Lagged) Full() bool { return len(l.pending) >= l.bound }

// Current replays instance i's unseen suffix of the buffer, coalesced when
// the instances allow, and returns the instance (nil if it was dropped).
// An owed slot is built first, with every owed slot below it.
func (l *Lagged) Current(i int) sketch.Estimator {
	l.buildTo(i + 1)
	inst := l.instances[i]
	if rest := l.pending[l.applied[i]:]; inst != nil && len(rest) > 0 {
		net := rest
		if l.coalesce {
			l.net = l.co.Coalesce(l.net[:0], rest)
			net = l.net
		}
		if cu, ok := inst.(sketch.CoalescedUpdater); ok {
			cu.UpdateCoalesced(net, rest)
		} else {
			sketch.ApplyBatch(inst, net)
		}
		l.applied[i] = len(l.pending)
	}
	return inst
}

// Replace puts a fresh instance in slot i — a new one, or the slot's own
// after a Reset. It tracks the stream from here on, so the buffered backlog
// is not its concern.
func (l *Lagged) Replace(i int, fresh sketch.Estimator) {
	l.instances[i] = fresh
	l.applied[i] = len(l.pending)
}

// Drop releases instance i; its slot stays, empty. While a slot is owed,
// the next build may restart the dropped instance in place.
func (l *Lagged) Drop(i int) {
	if l.built < len(l.instances) {
		l.spare = l.instances[i]
	}
	l.instances[i] = nil
}

// Drain builds every owed slot, brings every live instance up to date and
// empties the buffer. The instances that hold a prefix catch up first, one
// after another, each through the coalescing scratch; then those that owe
// the whole buffer read one shared copy of it, coalesced when the instances
// allow. Full-owers are independent of each other and the shared copy is
// only read, so they are fed from up to GOMAXPROCS goroutines, each
// claiming the next slot from a shared counter and building it first if it
// is owed (the lowest owed slot gets the spare); with one, the loop runs
// on the caller's goroutine.
func (l *Lagged) Drain() {
	for i := range l.built {
		if l.applied[i] != 0 {
			l.Current(i)
		}
	}
	net := l.pending
	if l.coalesce {
		l.net = l.co.Coalesce(l.net[:0], l.pending)
		net = l.net
	}
	owed := l.built
	var next atomic.Int64
	feed := func() {
		for i := int(next.Add(1) - 1); i < len(l.instances); i = int(next.Add(1) - 1) {
			switch {
			case i == owed:
				l.instances[i] = l.build(i, l.spare)
			case i > owed:
				l.instances[i] = l.build(i, nil)
			}
			inst := l.instances[i]
			if inst == nil || l.applied[i] != 0 {
				continue
			}
			if cu, ok := inst.(sketch.CoalescedUpdater); ok {
				cu.UpdateCoalesced(net, l.pending)
			} else {
				sketch.ApplyBatch(inst, net)
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(l.instances)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feed()
		}()
	}
	feed()
	wg.Wait()
	l.built, l.spare = len(l.instances), nil
	l.pending = l.pending[:0]
	clear(l.applied)
}

// SpaceBytes sums the live instances (built and not dropped), the lag
// buffer and the coalesced buffer (16 bytes a slot each), and the
// coalescer's index as allocated.
func (l *Lagged) SpaceBytes() int {
	total := 16*cap(l.pending) + 16*cap(l.net) + l.co.SpaceBytes()
	for _, inst := range l.instances {
		if inst != nil {
			total += inst.SpaceBytes()
		}
	}
	return total
}
