package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clientWorkers is the generator's concurrency: this box has two cores,
// so one generator process drives at most two requests at a time over at
// most two keep-alive connections per node.
const clientWorkers = 2

// phaseStats is what one timed phase measured. Latencies of failed
// requests are never recorded: a failure counts against attempts and
// misses every latency limit.
type phaseStats struct {
	dur   time.Duration
	write *Windowed // ingest requests; units are updates acknowledged
	read  *Windowed // query requests; units are calls answered
	round *Windowed // adaptive_game only: one POST plus one GET

	late       Hist // open loop: how long after its due time each request started
	backlogMax int  // open loop: most requests due but not yet started

	attempted, failed int
	firstErr          error

	serverCPU [numWindows + 1]time.Duration // summed over the sketchd pids, at each window edge
	clientCPU time.Duration                 // generator CPU over the phase
}

func newPhaseStats(dur time.Duration) *phaseStats {
	return &phaseStats{dur: dur, write: newWindowed(dur), read: newWindowed(dur), round: newWindowed(dur)}
}

func (p *phaseStats) merge(o *phaseStats) {
	p.write.Merge(o.write)
	p.read.Merge(o.read)
	p.round.Merge(o.round)
	p.late.Merge(&o.late)
	if o.backlogMax > p.backlogMax {
		p.backlogMax = o.backlogMax
	}
	p.attempted += o.attempted
	p.failed += o.failed
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// cpuPerRequest is server CPU per completed request in microseconds: the
// CPU the sketchd pids burned over the phases divided by the requests
// (writes and reads) completed in them, with the cheapest and dearest
// window as the spread.
func cpuPerRequest(rounds []*phaseStats) Spread {
	var vals []float64
	var cpu time.Duration
	var n uint64
	for _, p := range rounds {
		cpu += p.serverCPU[numWindows] - p.serverCPU[0]
		for i := 0; i < numWindows; i++ {
			reqs := p.write.win[i].Count() + p.read.win[i].Count()
			n += reqs
			if reqs > 0 {
				vals = append(vals, float64((p.serverCPU[i+1]-p.serverCPU[i]).Microseconds())/float64(reqs))
			}
		}
	}
	s := spreadOf(vals)
	if n > 0 {
		s.Median = float64(cpu.Microseconds()) / float64(n)
	}
	s.Samples = n
	return s
}

// pick collects one kind of histogram from the same phase of every round.
func pick(rounds []*phaseStats, which func(*phaseStats) *Windowed) []*Windowed {
	out := make([]*Windowed, len(rounds))
	for i, p := range rounds {
		out[i] = which(p)
	}
	return out
}

func writes(p *phaseStats) *Windowed  { return p.write }
func reads(p *phaseStats) *Windowed   { return p.read }
func rounded(p *phaseStats) *Windowed { return p.round }

// preciseSleep blocks the calling thread in nanosleep(2) for d. time.Sleep
// parks the goroutine on the runtime's poller, whose millisecond timeout
// makes an idle generator start every request up to a millisecond after it
// was due — more than the requests themselves take; nanosleep wakes within
// the kernel's 50 µs timer slack.
func preciseSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early EINTR wake-up only starts the request early
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleCPU records the summed CPU time of pids at every window edge of a
// phase that starts at start, and the generator's own CPU over the whole
// phase. It returns when the phase is over.
func sampleCPU(st *phaseStats, start time.Time, pids []int) {
	self0 := selfCPU()
	for i := 0; i <= numWindows; i++ {
		edge := start.Add(st.dur * time.Duration(i) / numWindows)
		time.Sleep(time.Until(edge))
		var sum time.Duration
		for _, pid := range pids {
			cpu, err := procCPU(pid)
			if err != nil && st.firstErr == nil {
				st.firstErr = err
			}
			sum += cpu
		}
		st.serverCPU[i] = sum
	}
	st.clientCPU = selfCPU() - self0
}

// runOpen drives an open-loop schedule: ops become due at fixed offsets
// whatever the server does, clientWorkers goroutines take them in due
// order, and each latency runs from when the request was due — not from
// when a busy generator got round to sending it — so a stall is charged
// to every request that was due during it. do performs one request and
// returns the units of work it completed.
func runOpen(ops []Op, dur time.Duration, pids []int, do func(worker int, op Op) (int64, error)) *phaseStats {
	total := newPhaseStats(dur)
	parts := make([]*phaseStats, clientWorkers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range parts {
		parts[w] = newPhaseStats(dur)
		wg.Add(1)
		go func(w int, st *phaseStats) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				op := ops[i]
				preciseSleep(op.Due - time.Since(start))
				began := time.Since(start)
				st.late.Record(int64(began - op.Due))
				due := sort.Search(len(ops), func(j int) bool { return ops[j].Due > began })
				if b := due - (i + 1); b > st.backlogMax {
					st.backlogMax = b
				}
				st.attempted++
				units, err := do(w, op)
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
					continue
				}
				lat := int64(time.Since(start) - op.Due)
				if op.Read {
					st.read.Record(op.Due, lat, units)
				} else {
					st.write.Record(op.Due, lat, units)
				}
			}
		}(w, parts[w])
	}
	sampleCPU(total, start, pids)
	wg.Wait()
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// runClosed drives a closed loop: each of clientWorkers goroutines sends
// its next request only after the previous one was answered, so the phase
// measures capacity, not latency under a fixed load. With n of 0 it runs
// until limit is over; with a positive n it sends exactly n requests, and
// gives up early only if limit is over first. Requests in flight at the end
// are answered and counted, and the rate is taken over the time until the
// last of them was. do performs the seq-th request of the phase; the
// workers draw seq from one shared counter, so the requests leave in
// generated order and the tenant mix stays the generated one however
// unequal the tenants' costs are.
func runClosed(limit time.Duration, n int, do func(worker, seq int) (int64, error)) *phaseStats {
	type answer struct {
		at, took time.Duration
		units    int64
	}
	parts := make([]*phaseStats, clientWorkers)
	answers := make([][]answer, clientWorkers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range parts {
		parts[w] = newPhaseStats(0)
		wg.Add(1)
		go func(w int, st *phaseStats) {
			defer wg.Done()
			for {
				t0 := time.Since(start)
				seq := int(next.Add(1)) - 1
				if t0 >= limit || (n > 0 && seq >= n) {
					return
				}
				st.attempted++
				units, err := do(w, seq)
				t1 := time.Since(start)
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
					continue
				}
				answers[w] = append(answers[w], answer{t1, t1 - t0, units})
			}
		}(w, parts[w])
	}
	wg.Wait()
	// The windows are cut once it is known how long the phase lasted.
	var took time.Duration
	for _, as := range answers {
		if len(as) > 0 {
			took = max(took, as[len(as)-1].at)
		}
	}
	total := newPhaseStats(took)
	for w, as := range answers {
		total.merge(parts[w])
		for _, a := range as {
			total.write.Record(a.at, int64(a.took), a.units)
		}
	}
	return total
}
