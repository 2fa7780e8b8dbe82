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
// both forms through sketch.CoalescedUpdater, every catch-up is coalesced.
// A dense ensemble's buffer (NewLagged given owed slots) over
// CoalesceInvariant instances is kept folded: a coalesced prefix, one entry
// per distinct item, and the raw tail Push appends to, folded onto the
// prefix (sketch.Coalescer.Fold) when a slot catches up, when the two reach
// the bound and at Drain, each of which feeds the prefix as it stands. So
// the bound counts distinct items, which the input alone decides, and the
// buffer and the fold's index grow with the updates pushed since the last
// drain, never with where the folds fell. Any other buffer stays raw, since
// a ring restarts slots mid-buffer and a CountSketch's pool walks the raw
// suffix: a Drain coalesces it once for every instance that owes all of it,
// and the few that hold a prefix (stepped since the last drain, replaced
// mid-buffer), like a catch-up outside a drain, replay their own suffix
// coalesced, into scratch reserved at the bound when the Lagged is made. A
// CoalescedUpdater is handed the raw suffix beside the coalesced one, for
// the state that depends on arrival order.
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
	pending   []sketch.Update    // the backlog: raw, or folded (the coalesced prefix pending[:folded], then the raw tail)
	bound     int
	coalesce  bool             // the instances declare sketch.CoalesceInvariant or implement sketch.CoalescedUpdater
	fold      bool             // the backlog is kept folded
	folded    int              // how much of a folded backlog is its prefix
	pushed    int              // updates pushed since the last drain, which size a folded backlog and its index
	co        sketch.Coalescer // the fold's index, or the raw catch-up's …
	net       []sketch.Update  // … and its coalesced suffix

	// Slots from built on are owed: not built yet, each owing the whole
	// stream since NewLagged, which pending still holds, since the first
	// Drain builds them all. build (see Owe) makes slot i, restarting spare
	// (the instance dropped last, or nil) in place when it can.
	build func(i int, spare sketch.Estimator) sketch.Estimator
	built int
	spare sketch.Estimator
}

// NewLagged takes ownership of the instances, none of which has seen an
// update; bound is how many updates (distinct items, when the buffer is
// kept folded) an instance may fall behind before Full asks for a Drain.
// The first instance must be there; the slots after the last one given are
// owed, and Owe says how to build them.
func NewLagged(instances []sketch.Estimator, bound int) Lagged {
	ci, ok := instances[0].(sketch.CoalesceInvariant)
	_, split := instances[0].(sketch.CoalescedUpdater)
	built := 0
	for built < len(instances) && instances[built] != nil {
		built++
	}
	l := Lagged{
		instances: instances,
		applied:   make([]int, len(instances)),
		bound:     bound,
		coalesce:  split || ok && ci.CoalesceInvariant(),
		built:     built,
	}
	l.fold = l.coalesce && !split && built < len(instances)
	if l.coalesce && !l.fold {
		l.net = make([]sketch.Update, 0, bound)
		l.co.Reserve(bound)
	}
	return l
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
	if l.fold {
		if l.pushed++; l.pushed > cap(l.pending) && cap(l.pending) < l.bound {
			l.grow()
		}
	}
	l.pending = append(l.pending, sketch.Update{Item: item, Delta: delta})
}

// grow doubles a folded buffer, toward the bound, with the index that fits
// it, and refills the index from the prefix.
func (l *Lagged) grow() {
	n := min(l.bound, max(2*cap(l.pending), 256))
	l.pending = append(make([]sketch.Update, 0, n), l.pending...)
	l.co.Reserve(n)
	l.co.Fold(l.pending[:0], l.pending[:l.folded])
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

// Full reports whether the buffer has reached its bound, folding a folded
// buffer's tail first once prefix and tail reach it; the caller Drains at a
// point where no instance is mid-read.
func (l *Lagged) Full() bool {
	if l.fold && len(l.pending) >= l.bound {
		l.foldTail()
	}
	return len(l.pending) >= l.bound
}

// foldTail folds the raw tail onto the coalesced prefix. Every live
// instance of a dense ensemble is at the buffer's start (not fed since the
// last drain) or at its end (the active copy, stepped with every push), so
// none has applied part of what the fold merges.
func (l *Lagged) foldTail() {
	l.pending = l.co.Fold(l.pending[:l.folded], l.pending[l.folded:])
	l.folded = len(l.pending)
	for i, a := range l.applied {
		if a > 0 {
			l.applied[i] = l.folded
		}
	}
}

// Current brings instance i up to date and returns it (nil if it was
// dropped): a folded buffer folds its tail and feeds the instance the rest
// as it stands, a raw one replays its suffix coalesced when the instances
// allow. An owed slot is built first, with every owed slot below it.
func (l *Lagged) Current(i int) sketch.Estimator {
	l.buildTo(i + 1)
	inst := l.instances[i]
	if inst == nil || l.applied[i] == len(l.pending) {
		return inst
	}
	if l.fold {
		l.foldTail()
	}
	if rest := l.pending[l.applied[i]:]; len(rest) > 0 {
		net := rest
		if l.coalesce && !l.fold {
			l.net = l.co.Coalesce(l.net[:0], rest)
			net = l.net
		}
		if cu, ok := inst.(sketch.CoalescedUpdater); ok {
			cu.UpdateCoalesced(net, rest)
		} else {
			sketch.ApplyBatch(inst, net)
		}
	}
	l.applied[i] = len(l.pending)
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
// empties the buffer. A folded buffer folds its tail first; then the
// instances that hold a prefix catch up, one after another, and those that
// owe the whole buffer read one shared copy of it: the folded prefix as it
// stands, or the raw buffer coalesced once when the instances allow.
// Full-owers are independent of each other and the shared copy is only
// read, so they are fed from up to GOMAXPROCS goroutines, each claiming the
// next slot from a shared counter and building it first if it is owed (the
// lowest owed slot gets the spare); with one, the loop runs on the caller's
// goroutine.
func (l *Lagged) Drain() {
	if l.fold {
		l.foldTail()
	}
	for i := range l.built {
		if l.applied[i] != 0 {
			l.Current(i)
		}
	}
	net := l.pending
	if l.coalesce && !l.fold {
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
	l.folded, l.pushed = 0, 0
	clear(l.applied)
}

// SpaceBytes sums the live instances (built and not dropped), the lag
// buffer and the coalesced scratch (16 bytes a slot each), and the
// coalescer's index, all as allocated.
func (l *Lagged) SpaceBytes() int {
	total := 16*cap(l.pending) + 16*cap(l.net) + l.co.SpaceBytes()
	for _, inst := range l.instances {
		if inst != nil {
			total += inst.SpaceBytes()
		}
	}
	return total
}
