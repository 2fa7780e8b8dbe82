package main

import (
	"context"
	"testing"
)

// A two-and-a-half-second ingest_static against a real sketchd child: every
// end-to-end metric is measured and non-zero, every check holds, and the
// result line carries exactly the registered names.
func TestSmokeIngestStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/sketchd and spawns it; skipped under -short")
	}
	env, err := openEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer env.sb.Close()
	res, err := runWorkload(context.Background(), env, workloadByName("ingest_static"), 1, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		if !c.OK {
			t.Errorf("check %q failed: %s", c.Name, c.Detail)
		}
	}
	if !res.Correct() || res.Attempted < 1000 {
		t.Errorf("correct=%v with %d attempted, %d failed", res.Correct(), res.Attempted, res.Failed)
	}
	line := res.line(false)
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("the result line holds %d metrics, want the %d end-to-end ones", len(line.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if v, ok := line.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
			t.Errorf("%s = %+v, want a positive value in %s", d.Name, v, d.Unit)
		}
	}
	if traced := res.line(true); len(traced.Metrics) != len(perLayer) {
		t.Errorf("the traced line holds %d metrics, want the %d per-layer ones", len(traced.Metrics), len(perLayer))
	}
}
