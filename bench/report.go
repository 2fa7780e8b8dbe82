package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// Env is the environment a result file was measured in; numbers from two
// files compare only when it matches.
type Env struct {
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func environment(root string) Env {
	e := Env{
		Commit:     "unknown", // the driver's checkout is not a git repository
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(data))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// resultFile is what -out writes and -compare reads: every pass of every
// selected workload, with the environment.
type resultFile struct {
	Env     Env         `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Passes  [][]*Result `json:"passes"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric of one workload over every pass.
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, pass := range f.Passes {
		for _, r := range pass {
			if s, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, s.Median)
			}
		}
	}
	return out
}

func (f *resultFile) workloadNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, pass := range f.Passes {
		for _, r := range pass {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				names = append(names, r.Workload)
			}
		}
	}
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line object a single-workload run ends with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line renders the result for the driver: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one. A per-layer metric
// the workload has no use for (wal.* without a log, cluster.* on one node)
// reads 0.
func (r *Result) line(traced bool) resultLine {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	l := resultLine{Correct: r.Correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		l.Metrics[d.Name] = metricValue{Value: r.Metrics[d.Name].Median, Unit: d.Unit}
	}
	return l
}

// printResult prints every metric the run measured, by name, with its
// unit, the spread over the phase windows and the sample count, then the
// checks that failed.
func printResult(w io.Writer, r *Result) {
	verdict := "correct"
	if !r.Correct() {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %.0fs timed, %.1fs wall  %d attempted, %d failed  %s\n",
		r.Workload, r.Seed, r.Seconds, r.WallS, r.Attempted, r.Failed, verdict)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tmin\tmax\tsamples\t")
	row := func(d metricDef) {
		s, ok := r.Metrics[d.Name]
		if !ok {
			return
		}
		note := ""
		if s.LowTail {
			note = fmt.Sprintf("fewer than %d samples beyond", tailMinBeyond)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%.6g\t%.6g\t%d\t%s\n", d.Name, s.Median, d.Unit, s.Min, s.Max, s.Samples, note)
	}
	for _, d := range endToEnd {
		row(d)
	}
	for _, d := range perLayer {
		row(d)
	}
	tw.Flush()
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "FAILED CHECK %s: %s\n", c.Name, c.Detail)
		}
	}
}

func median(vals []float64) float64 { return spreadOf(vals).Median }

// relSpread is the run-to-run spread of vals as a share of their median:
// the distance between the quartiles with four or more values, the full
// range with fewer.
func relSpread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) < 2 || median(s) == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return (hi - lo) / median(s)
}

// quantile interpolates the q-quantile of sorted values the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is how
// the driver measures spread.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(pos)
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// printRepeat prints min/median/max and the relative spread of every
// end-to-end metric over the passes of a -repeat run.
func printRepeat(w io.Writer, f *resultFile) {
	fmt.Fprintf(w, "\n== %d passes\n", len(f.Passes))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmin\tmedian\tmax\tunit\tspread\tbound\t")
	for _, wl := range f.workloadNames() {
		for _, d := range endToEnd {
			vals := f.values(wl, d.Name)
			if len(vals) == 0 {
				continue
			}
			s := spreadOf(vals)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%s\t%.1f%%\t%.0f%%\t\n",
				wl, d.Name, s.Min, s.Median, s.Max, d.Unit, 100*relSpread(vals), 100*d.Bound)
		}
	}
	tw.Flush()
}

// verdict applies one metric's bound to two sets of runs. worse means b's
// median is worse than a's by more than the bound; where either side's own
// spread exceeds the bound the comparison is unresolved, unless every run
// of one side beats every run of the other.
func verdict(d metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	change := (mb - ma) / ma // positive means b is worse
	if d.Better == "higher" {
		change = -change
	}
	worseAll, betterAll := true, true
	for _, x := range a {
		for _, y := range b {
			bWorse := y > x
			if d.Better == "higher" {
				bWorse = y < x
			}
			if y == x {
				worseAll, betterAll = false, false
			} else if bWorse {
				betterAll = false
			} else {
				worseAll = false
			}
		}
	}
	noise := max(relSpread(a), relSpread(b))
	switch {
	case noise > d.Bound && betterAll:
		return "better", change
	case noise > d.Bound && worseAll && change > d.Bound:
		return "worse", change
	case noise > d.Bound:
		return "unresolved", change
	case change > d.Bound:
		return "worse", change
	case change < -noise && betterAll:
		return "better", change
	}
	return "unchanged", change
}

// compareFiles prints one row per end-to-end metric × workload and exits
// non-zero if any row is worse.
func compareFiles(pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResultFile(pathB); err == nil {
			return compareResults(os.Stdout, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func compareResults(w io.Writer, a, b *resultFile) int {
	if a.Env != b.Env {
		fmt.Fprintf(w, "environments differ:\n  a: %+v\n  b: %+v\n", a.Env, b.Env)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median\tb median\tunit\tb worse by\tbound\tspread a\tspread b\tverdict\t")
	worse := 0
	for _, wl := range a.workloadNames() {
		for _, d := range endToEnd {
			va, vb := a.values(wl, d.Name), b.values(wl, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := verdict(d, va, vb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\t\n",
				wl, d.Name, median(va), median(vb), d.Unit, 100*change, 100*d.Bound,
				100*relSpread(va), 100*relSpread(vb), v)
		}
	}
	tw.Flush()
	if worse > 0 {
		return 1
	}
	return 0
}
