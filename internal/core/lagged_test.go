package core

import (
	"bytes"
	"encoding"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/entropy"
	"repro/internal/f0"
	"repro/internal/fp"
	"repro/internal/heavyhitters"
	"repro/internal/sketch"
)

// TestLaggedCoalescedCatchUp: a Lagged over coalesce-invariant instances,
// or over instances that take a catch-up in both forms (a CountSketch whose
// candidate pool prunes within the stream), replays every suffix coalesced,
// and leaves each instance byte-equal to a twin that replays it raw — for
// an instance stepped mid-buffer, a slot replaced mid-buffer, the next
// active copy caught up at a switch over a suffix with repeats, negative
// deltas and one delta past int32, and a Drain whose prefix-holders sit
// between full-owers, so that each prefix-holder's catch-up reuses the
// scratch the full-owers are fed from.
func TestLaggedCoalescedCatchUp(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory sketch.Factory
	}{
		{"f2", func(seed int64) sketch.Estimator {
			return fp.NewF2(fp.F2Sizing{Rows: 5, Width: 64}, rand.New(rand.NewSource(seed)))
		}},
		{"kmv", func(seed int64) sketch.Estimator { return f0.NewKMV(24, rand.New(rand.NewSource(seed))) }},
		{"countsketch", func(seed int64) sketch.Estimator {
			return heavyhitters.NewCountSketch(heavyhitters.Sizing{Rows: 5, Width: 8}, rand.New(rand.NewSource(seed)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Lagged {
				instances := make([]sketch.Estimator, 6)
				for i := range instances {
					instances[i] = tc.factory(int64(i))
				}
				l := NewLagged(instances, PendingCap)
				return &l
			}
			got, raw := build(), build()
			if !got.coalesce {
				t.Fatal("the instances neither declare sketch.CoalesceInvariant nor implement sketch.CoalescedUpdater")
			}
			raw.coalesce = false
			both := func(op func(l *Lagged)) { op(got); op(raw) }
			// Items repeat within a few dozen updates and drift, so a suffix
			// fed in place of the whole buffer misses some.
			rng, pushed := rand.New(rand.NewSource(3)), 0
			push := func(n int) {
				for range n {
					item, delta := uint64(pushed/16+rng.Intn(40)), []int64{1, 2, -1, -3}[rng.Intn(4)]
					both(func(l *Lagged) { l.Push(item, delta) })
					pushed++
				}
			}
			same := func(what string) {
				t.Helper()
				for i, inst := range got.instances {
					g, _ := inst.(encoding.BinaryMarshaler).MarshalBinary()
					r, _ := raw.instances[i].(encoding.BinaryMarshaler).MarshalBinary()
					if !bytes.Equal(g, r) {
						t.Fatalf("%s: instance %d encodes differently from its raw-replay twin", what, i)
					}
				}
			}

			// Instances 1, 3 and 5 come to the drain holding a prefix; 0, 2
			// and 4 owe the whole buffer.
			push(300)
			both(func(l *Lagged) { l.Current(1) })
			for i := range 20 {
				both(func(l *Lagged) { l.Step(1, uint64(i%7), -2) })
				push(5)
			}
			same("stepped mid-buffer")
			push(100)
			both(func(l *Lagged) { l.Replace(3, tc.factory(99)) })
			push(300)
			same("replaced mid-buffer")
			both(func(l *Lagged) { l.Push(1000, 1<<32) })
			push(300)
			both(func(l *Lagged) { l.Current(5) })
			same("caught up at a switch")
			push(200)
			both(func(l *Lagged) { l.Drain() })
			same("drained")
			push(500)
			both(func(l *Lagged) { l.Current(0) })
			same("caught up after the drain")
		})
	}
}

// TestDrainFanOutMatchesSerialLoop: Drain feeds its full-owers from up to
// GOMAXPROCS goroutines. A Lagged drained under GOMAXPROCS 4 leaves every
// instance byte-equal to a twin drained under GOMAXPROCS 1, where the loop
// runs on the caller's goroutine, over three drains whose prefix-holders
// (stepped, replaced, caught up) sit between full-owers, and over one slot
// dropped. CC declares neither coalescing interface, so its full-owers read
// the raw buffer.
func TestDrainFanOutMatchesSerialLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name    string
		factory sketch.Factory
	}{
		{"f2", func(seed int64) sketch.Estimator {
			return fp.NewF2(fp.F2Sizing{Rows: 5, Width: 64}, rand.New(rand.NewSource(seed)))
		}},
		{"kmv", func(seed int64) sketch.Estimator { return f0.NewKMV(24, rand.New(rand.NewSource(seed))) }},
		{"countsketch", func(seed int64) sketch.Estimator {
			return heavyhitters.NewCountSketch(heavyhitters.Sizing{Rows: 5, Width: 8}, rand.New(rand.NewSource(seed)))
		}},
		{"cc", func(seed int64) sketch.Estimator {
			return entropy.NewCC(entropy.CCSizing{Groups: 3, Per: 8}, rand.New(rand.NewSource(seed)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Lagged {
				instances := make([]sketch.Estimator, 8)
				for i := range instances {
					instances[i] = tc.factory(int64(i))
				}
				l := NewLagged(instances, PendingCap)
				return &l
			}
			serial, fanned := build(), build()
			rng := rand.New(rand.NewSource(8))
			for round := range 3 {
				for n := range 2000 {
					item, delta := uint64(n/8+rng.Intn(50)), int64(1+rng.Intn(3))
					serial.Push(item, delta)
					fanned.Push(item, delta)
					switch n {
					case 500:
						serial.Step(2, item, 1)
						fanned.Step(2, item, 1)
					case 900:
						serial.Replace(4, tc.factory(int64(100+round)))
						fanned.Replace(4, tc.factory(int64(100+round)))
					case 1500:
						serial.Current(6)
						fanned.Current(6)
					}
				}
				if round == 1 {
					serial.Drop(5)
					fanned.Drop(5)
				}
				runtime.GOMAXPROCS(1)
				serial.Drain()
				runtime.GOMAXPROCS(4)
				fanned.Drain()
				for i, inst := range serial.instances {
					if inst == nil {
						continue
					}
					a, _ := inst.(encoding.BinaryMarshaler).MarshalBinary()
					b, _ := fanned.instances[i].(encoding.BinaryMarshaler).MarshalBinary()
					if !bytes.Equal(a, b) {
						t.Fatalf("drain %d: instance %d encodes differently fanned out than drained serially", round, i)
					}
				}
			}
		})
	}
}
