package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refQuantile is the sorted-slice reference: the ceil(q·n)-th smallest.
func refQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestHistMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 7, 100, 5000, 200000} {
		var h Hist
		vals := make([]int64, n)
		for i := range vals {
			// Log-uniform between 1 µs and 10 s, the range latencies live in.
			vals[i] = int64(math.Exp(rng.Float64()*math.Log(1e7)) * 1e3)
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		if h.Count() != uint64(n) {
			t.Fatalf("n=%d: count %d", n, h.Count())
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			got, beyond := h.Quantile(q)
			want := float64(refQuantile(vals, q))
			if rel := math.Abs(got-want) / want; rel > 0.01 {
				t.Errorf("n=%d q=%v: histogram %v, reference %v (off by %.2f%%, limit 1%%)", n, q, got, want, 100*rel)
			}
			// Observations beyond the quantile's bucket can only be fewer
			// than those beyond the quantile itself.
			if most := uint64(n - int(math.Ceil(q*float64(n)))); beyond > most {
				t.Errorf("n=%d q=%v: %d beyond, at most %d possible", n, q, beyond, most)
			}
		}
	}
}

func TestHistSmallValuesAreExact(t *testing.T) {
	var h Hist
	for v := int64(0); v < subCount; v++ {
		h.Record(v)
	}
	for _, q := range []float64{0.25, 0.5, 1} {
		got, _ := h.Quantile(q)
		if want := float64(refQuantile(seq(subCount), q)); got != want {
			t.Errorf("q=%v: %v, want %v", q, got, want)
		}
	}
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestRecordDoesNotAllocate(t *testing.T) {
	w := newWindowed(time.Second)
	if a := testing.AllocsPerRun(1000, func() { w.Record(300*time.Millisecond, 123456, 512) }); a != 0 {
		t.Fatalf("Record allocates %v times per call", a)
	}
}

// A percentile is taken over all windows pooled, shows the per-window
// extremes beside it, and is flagged when fewer than ten observations lie
// beyond it.
func TestPercentileTailRule(t *testing.T) {
	fill := func(perWindow int) *Windowed {
		w := newWindowed(5 * time.Second)
		for win := 0; win < numWindows; win++ {
			at := time.Duration(win)*time.Second + time.Millisecond
			for i := 0; i < perWindow; i++ {
				// Window k's observations run from 1 ms up to (k+2) ms.
				w.Record(at, int64(1e6+float64(i)/float64(perWindow)*float64(win+1)*1e6), 1)
			}
		}
		return w
	}
	var all []int64
	for win := 0; win < numWindows; win++ {
		for i := 0; i < 2000; i++ {
			all = append(all, int64(1e6+float64(i)/2000*float64(win+1)*1e6))
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	s := percentileOf([]*Windowed{fill(2000)}, 0.99)
	if want := float64(refQuantile(all, 0.99)) / 1e6; s.LowTail || s.Samples != 5*2000 || math.Abs(s.Median-want) > 0.01*want {
		t.Fatalf("pooled p99 %+v, want %v ms from 10000 samples", s, want)
	}
	// The spread is the per-window p99s: 1.99 ms in window 0, 5.95 in 4.
	if math.Abs(s.Min-1.99) > 0.03 || math.Abs(s.Max-5.95) > 0.06 {
		t.Errorf("per-window p99s span %v..%v ms, want 1.99..5.95", s.Min, s.Max)
	}
	// Rounds pool: 500 samples leave 5 beyond their p99, three times 500
	// leave 15.
	if s = percentileOf([]*Windowed{fill(100)}, 0.99); !s.LowTail {
		t.Errorf("500 samples leave 5 beyond their p99, yet it is not flagged: %+v", s)
	}
	if s = percentileOf([]*Windowed{fill(100), fill(100), fill(100)}, 0.99); s.LowTail || s.Samples != 1500 {
		t.Errorf("three rounds of 500 samples leave 15 beyond their p99: %+v", s)
	}
	if s = percentileOf([]*Windowed{fill(100)}, 0.50); s.LowTail {
		t.Errorf("a median needs no tail: %+v", s)
	}
}

func TestRateIsTotalOverTime(t *testing.T) {
	w := newWindowed(5 * time.Second)
	for win, units := range []int64{100, 300, 200, 1000, 250} {
		w.Record(time.Duration(win)*time.Second+time.Millisecond, 1, units)
	}
	s := rateOf([]*Windowed{w, w})
	if s.Median != 370 || s.Min != 100 || s.Max != 1000 || s.Samples != 10 {
		t.Fatalf("rate %+v, want 1850 units over 5 s = 370/s, windows 100..1000, 10 samples", s)
	}
}
