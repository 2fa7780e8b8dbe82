package main

import (
	"math/bits"
	"sort"
	"time"
)

// Hist is a log-bucket latency histogram over nanosecond values: values
// below 2^subBits land in exact unit buckets, larger ones in 2^subBits
// sub-buckets per octave, so a bucket is at most 1/128 of its value wide
// and reporting its midpoint is off by at most 0.4 %. Record allocates
// nothing and the zero value is ready to use. Not safe for concurrent
// use: each load worker owns its histograms and they are merged after
// the phase.
type Hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    int64
}

const (
	subBits     = 7
	subCount    = 1 << subBits
	maxExp      = 42 // values are capped at 2^42 ns (73 minutes)
	histBuckets = (maxExp - subBits + 1) * subCount
)

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	if v >= 1<<maxExp {
		v = 1<<maxExp - 1
	}
	e := bits.Len64(uint64(v)) - 1 // e >= subBits
	sub := int(v>>(e-subBits)) & (subCount - 1)
	return (e-subBits+1)*subCount + sub
}

// bucketMid is the value reported for bucket b: exact below subCount, the
// midpoint of the bucket's range above.
func bucketMid(b int) float64 {
	if b < subCount {
		return float64(b)
	}
	e := b/subCount + subBits - 1
	sub := int64(b % subCount)
	width := int64(1) << (e - subBits)
	lo := int64(1)<<e + sub*width
	return float64(lo) + float64(width-1)/2
}

// Record adds one observation of v nanoseconds.
func (h *Hist) Record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.n }

// Merge adds every observation of o into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// Quantile returns the q-quantile (0 < q <= 1) in nanoseconds — the value
// of the ceil(q·n)-th smallest observation, to bucket precision — and the
// number of observations in buckets strictly beyond it. An empty
// histogram answers (0, 0).
func (h *Hist) Quantile(q float64) (ns float64, beyond uint64) {
	if h.n == 0 {
		return 0, 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return bucketMid(b), h.n - seen
		}
	}
	return float64(h.max), 0
}

// tailMinBeyond is how many observations must lie beyond a percentile for
// it to be reported as measured: ten, per the choosing-metrics rule.
const tailMinBeyond = 10

// numWindows is how many equal windows every timed phase is cut into; the
// smallest and largest per-window value are printed beside every metric.
const numWindows = 5

// Windowed is one histogram per phase window plus per-window completion
// counts. A sample belongs to the window its request was due in (open
// loop) or completed in (closed loop), so a stall is charged to the
// window it happened in.
type Windowed struct {
	phase time.Duration
	win   [numWindows]Hist
	units [numWindows]int64 // e.g. updates acknowledged in the window
}

func newWindowed(phase time.Duration) *Windowed { return &Windowed{phase: phase} }

func (w *Windowed) index(at time.Duration) int {
	if w.phase <= 0 || at < 0 {
		return 0
	}
	i := int(int64(at) * numWindows / int64(w.phase))
	if i >= numWindows {
		i = numWindows - 1
	}
	return i
}

// Record files a latency observed for a request placed at offset at from
// the phase start, together with the units of work it completed.
func (w *Windowed) Record(at time.Duration, latencyNS, units int64) {
	i := w.index(at)
	w.win[i].Record(latencyNS)
	w.units[i] += units
}

func (w *Windowed) Merge(o *Windowed) {
	for i := range w.win {
		w.win[i].Merge(&o.win[i])
		w.units[i] += o.units[i]
	}
}

// Spread is a metric's value — Median, whatever estimator produced it —
// with the smallest and largest per-window value beside it.
type Spread struct {
	Median, Min, Max float64
	Samples          uint64 // observations behind the value
	LowTail          bool   // a percentile with fewer than tailMinBeyond observations beyond it
}

// scaled returns s with its value and its spread multiplied by k.
func (s Spread) scaled(k float64) Spread {
	s.Median, s.Min, s.Max = s.Median*k, s.Min*k, s.Max*k
	return s
}

func spreadOf(vals []float64) Spread {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return Spread{}
	}
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return Spread{Median: med, Min: s[0], Max: s[len(s)-1]}
}

// percentileOf reports the q-quantile, in milliseconds, of the phases ws —
// the same phase of every round of a run — pooled into one histogram, with
// the smallest and largest per-window quantile as its spread. LowTail is
// set when fewer than tailMinBeyond observations lie beyond a tail
// percentile.
func percentileOf(ws []*Windowed, q float64) Spread {
	var vals []float64
	var pooled Hist
	for _, w := range ws {
		for i := range w.win {
			if w.win[i].Count() > 0 {
				v, _ := w.win[i].Quantile(q)
				vals = append(vals, v/1e6)
			}
			pooled.Merge(&w.win[i])
		}
	}
	s := spreadOf(vals)
	v, beyond := pooled.Quantile(q)
	s.Median = v / 1e6
	s.Samples = pooled.Count()
	s.LowTail = q > 0.5 && beyond < tailMinBeyond
	return s
}

// rateOf reports units per second: everything the phases ws completed
// divided by the time they ran, with the slowest and fastest window as the
// spread. It is the mean on purpose: a robust tenant pays for its flips in
// stalls as long as a window, so its per-window rates are bimodal and
// their median says which mode had the majority, not how fast it was.
func rateOf(ws []*Windowed) Spread {
	var vals []float64
	var units, secs float64
	var n uint64
	for _, w := range ws {
		per := w.phase.Seconds() / numWindows
		secs += w.phase.Seconds()
		for i := range w.units {
			if per > 0 {
				vals = append(vals, float64(w.units[i])/per)
			}
			units += float64(w.units[i])
			n += w.win[i].Count()
		}
	}
	s := spreadOf(vals)
	if secs > 0 {
		s.Median = units / secs
	}
	s.Samples = n
	return s
}
