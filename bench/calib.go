package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The guest this benchmark runs in shares its host's caches and memory
// with other guests, and how fast it runs follows what they are doing: the
// same sketchd on the same inputs read 4.7 M updates/s in one run and
// 2.0 M an hour later, with every latency and even the CPU time per
// request moving alike, for a minute or an hour at a time. No run length
// the driver allows averages that out. So a run measures the host beside
// the program: while a timed phase runs, a calibrator thread walks a
// 4 MiB table at random every 10 ms — work fixed in this file, which no
// change to the repository can touch — and times each walk in its own
// thread's CPU time, so that being scheduled out does not count. The mean
// walk time of the phase over the walk time of a quiet host is the phase's
// slowdown, and every timing of that phase is reported at the quiet
// host's speed: times divided by it, rates multiplied. Recorded beside
// the raw values over three sweeps of fifty runs, the walk correlated with
// the timings at r = 0.8–0.96 and took their mean spread from 7.0 % to
// 5.9 % in fairly quiet hours; in a noisy one a 32 MiB walk, the first
// tried, took 17–64 % to 4–36 % (README). The slowdowns are printed as host.slowdown_x and
// host.slowdown_closed_x: a reported timing times its phase's slowdown is
// the timing as it was measured.

const (
	walkTable = 1 << 19 // 8-byte entries: 4 MiB, larger than the L2 and a fair share of the L3
	walkSteps = 4000
	walkEvery = 10 * time.Millisecond

	// refWalk is what one walk costs on this guest's host while it is
	// quiet: 17.5 ns a step.
	refWalk = 70 * time.Microsecond
)

// calPhase says which timed phase a walk belongs to.
type calPhase int32

const (
	calIdle calPhase = iota // set-up, checks, teardown: not kept
	calOpen
	calClosed
	calJSON
	calGame
	calPhases
)

type calibrator struct {
	phase atomic.Int32
	stop  chan struct{}
	once  sync.Once
	done  chan struct{}
	table []uint64
	sink  uint64
	walks [calPhases][]float64 // thread CPU nanoseconds per walk
}

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// walk reads walkSteps entries of the table at xorshift-random places.
func (c *calibrator) walk(seed uint64) {
	x := seed | 1
	var sum uint64
	for i := 0; i < walkSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += c.table[x&(walkTable-1)]
	}
	c.sink += sum
}

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{}), table: make([]uint64, walkTable)}
	for i := range c.table {
		c.table[i] = uint64(i)
	}
	go func() {
		defer close(c.done)
		runtime.LockOSThread() // the CPU clock read is the thread's
		defer runtime.UnlockOSThread()
		for n := uint64(1); ; n++ {
			select {
			case <-c.stop:
				return
			default:
			}
			if ph := calPhase(c.phase.Load()); ph != calIdle {
				t0 := threadCPU()
				c.walk(n * 0x9e3779b97f4a7c15)
				c.walks[ph] = append(c.walks[ph], float64(threadCPU()-t0))
			}
			preciseSleep(walkEvery)
		}
	}()
	return c
}

// during labels the walks from now until the returned function is called.
func (c *calibrator) during(p calPhase) (end func()) {
	c.phase.Store(int32(p))
	return func() { c.phase.Store(int32(calIdle)) }
}

// close stops the walks and waits for the thread; safe to call twice.
func (c *calibrator) close() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}

// slowdown is how many times slower than the quiet host the host ran
// during phase p, over every round: the mean walk, the slowest twentieth
// left out (an interrupt or a migration mid-walk), over refWalk. A phase
// that was never walked reads 1. Call it after close.
func (c *calibrator) slowdown(p calPhase) float64 {
	s := append([]float64(nil), c.walks[p]...)
	sort.Float64s(s)
	s = s[:len(s)-len(s)/20]
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	if sum <= 0 {
		return 1
	}
	return sum / float64(len(s)) / float64(refWalk)
}
