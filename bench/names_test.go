package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchmarkJSON struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchE2E      `json:"end_to_end"`
	PerLayer   []benchLayer    `json:"per_layer"`
}

// wantBenchmarkJSON is BENCHMARK.json as the binary's own tables imply it.
func wantBenchmarkJSON() benchmarkJSON {
	want := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, benchWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, benchE2E{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, benchLayer{d.Name, d.Unit, d.Better})
	}
	return want
}

// The workload and metric names the binary prints are exactly those
// BENCHMARK.json lists, with the same units, directions and bounds.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	want := wantBenchmarkJSON()
	gotJSON, _ := json.MarshalIndent(got, "", "  ")
	wantJSON, _ := json.MarshalIndent(want, "", "  ")
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("BENCHMARK.json disagrees with the tables in metrics.go and workloads.go; the tables say:\n%s", wantJSON)
	}
}

// The limits the driver's contract puts on BENCHMARK.json.
func TestRegistryMeetsContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	maxBound := 0.0
	for _, d := range endToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
	}
	for _, d := range endToEnd {
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower" && d.Bound == maxBound
		}
	}
	if !setup {
		t.Error("setup_s must be an end-to-end metric in s, lower is better, with the largest bound")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		use(d.Name)
		if d.Layer == "" || d.Moves == "" {
			t.Errorf("%s: a per-layer metric names its layer and the end-to-end metric it should move", d.Name)
		}
	}
	if defaultSeconds < 1 || defaultSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", defaultSeconds)
	}
}
