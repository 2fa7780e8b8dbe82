package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "ingest_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ingest_updates_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same runs", lower, steady, steady, "unchanged"},
		{"within the bound", lower, steady, []float64{105, 106, 104, 105, 107}, "unchanged"},
		{"latency up by a fifth", lower, steady, []float64{120, 121, 119, 120, 122}, "worse"},
		{"latency down by a fifth", lower, steady, []float64{80, 81, 79, 80, 82}, "better"},
		{"throughput down by a fifth", higher, steady, []float64{80, 81, 79, 80, 82}, "worse"},
		{"throughput up by a fifth", higher, steady, []float64{120, 121, 119, 120, 122}, "better"},
		{"spread wider than the bound", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 108}, "unresolved"},
		{"noisy, yet every run is better", lower, []float64{100, 120, 140, 110, 130}, []float64{50, 60, 70, 55, 65}, "better"},
		{"noisy, and every run is worse", lower, []float64{50, 60, 70, 55, 65}, []float64{100, 120, 140, 110, 130}, "worse"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// relSpread is what the driver computes: the distance between the
// quartiles of statistics.quantiles(values, n=4) over the median.
func TestRelSpreadMatchesPythonQuantiles(t *testing.T) {
	vals := []float64{12, 15, 11, 19, 14, 13, 18, 16, 17, 10}
	// statistics.quantiles(vals, n=4) == [11.75, 14.5, 17.25]; median 14.5.
	if got, want := relSpread(vals), (17.25-11.75)/14.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("relSpread = %v, want %v", got, want)
	}
	if got := relSpread([]float64{10, 12}); math.Abs(got-2.0/11) > 1e-12 {
		t.Fatalf("with fewer than four values the spread is the range over the median, got %v", got)
	}
}

func TestCompareReportsEveryPairing(t *testing.T) {
	mk := func(p50 float64) *resultFile {
		f := &resultFile{}
		for i := 0; i < 5; i++ {
			f.Passes = append(f.Passes, []*Result{{
				Workload: "ingest_static",
				Metrics:  map[string]Spread{"ingest_p50_ms": {Median: p50 + float64(i)/100}, "setup_s": {Median: 0.02}},
			}})
		}
		return f
	}
	worseRows := func(table string) int {
		n := 0
		for _, line := range strings.Split(table, "\n") {
			if strings.HasSuffix(strings.TrimSpace(line), " worse") {
				n++
			}
		}
		return n
	}
	var out bytes.Buffer
	if code := compareResults(&out, mk(1.0), mk(1.5)); code != 1 {
		t.Errorf("a 50%% slower p50 must fail the comparison, exit code %d", code)
	}
	if worseRows(out.String()) != 1 || strings.Count(out.String(), "ingest_static") != 2 {
		t.Errorf("want one row for each of the two metrics present, one of them worse:\n%s", out.String())
	}
	out.Reset()
	if code := compareResults(&out, mk(1.0), mk(1.0)); code != 0 || worseRows(out.String()) != 0 {
		t.Errorf("identical files must compare clean, exit code %d:\n%s", code, out.String())
	}
}
