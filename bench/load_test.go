package main

import (
	"testing"
	"time"
)

// A closed loop by the clock stops starting requests when its time is up;
// one by count sends exactly its count; both take their rate over the time
// until the last answer.
func TestClosedLoopByClockAndByCount(t *testing.T) {
	do := func(_, _ int) (int64, error) {
		time.Sleep(time.Millisecond)
		return 2, nil
	}
	const limit = 40 * time.Millisecond
	byClock := runClosed(limit, 0, do)
	if byClock.attempted < 10 || byClock.failed != 0 {
		t.Fatalf("by the clock: %d attempted, %d failed", byClock.attempted, byClock.failed)
	}
	if byClock.dur < limit || byClock.dur > 2*limit {
		t.Errorf("by the clock: lasted %v, want a little over %v", byClock.dur, limit)
	}

	seen := make([]int, 50)
	byCount := runClosed(time.Minute, len(seen), func(_, seq int) (int64, error) {
		seen[seq]++
		return do(0, seq)
	})
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("by count: request %d was sent %d times", seq, n)
		}
	}
	if byCount.attempted != len(seen) {
		t.Errorf("by count: %d attempted, want %d", byCount.attempted, len(seen))
	}
	r := rateOf([]*Windowed{byCount.write})
	if want := float64(2*len(seen)) / byCount.dur.Seconds(); r.Median < 0.99*want || r.Median > 1.01*want {
		t.Errorf("by count: rate %.1f units/s, want %d units over %v = %.1f", r.Median, 2*len(seen), byCount.dur, want)
	}

	if capped := runClosed(limit, 1<<20, do); capped.attempted >= 1<<20 || capped.dur > 2*limit {
		t.Errorf("a count the limit cuts short: %d attempted in %v", capped.attempted, capped.dur)
	}
}
