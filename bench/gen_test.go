package main

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stream"
)

func TestSameSeedSameInputs(t *testing.T) {
	w := workloadByName("mixed_durable")
	b1, q1 := generate(w, 42)
	b2, q2 := generate(w, 42)
	if !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(q1, q2) {
		t.Fatal("the same seed produced different batches or queries")
	}
	s1 := genSchedule(42, 300, 200, 2*time.Second)
	s2 := genSchedule(42, 300, 200, 2*time.Second)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("the same seed produced different schedules")
	}
	b3, q3 := generate(w, 43)
	if reflect.DeepEqual(b1, b3) || reflect.DeepEqual(q1, q3) {
		t.Fatal("a different seed produced the same batches or queries")
	}
	if reflect.DeepEqual(s1, genSchedule(43, 300, 200, 2*time.Second)) {
		t.Fatal("a different seed produced the same schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	dur := 3 * time.Second
	ops := genSchedule(7, 300, 200, dur)
	writes, reads := 0, 0
	for i, op := range ops {
		if op.Due < 0 || op.Due >= dur {
			t.Fatalf("op %d due at %v, outside the phase", i, op.Due)
		}
		if i > 0 && op.Due < ops[i-1].Due {
			t.Fatalf("op %d is due before op %d", i, i-1)
		}
		if op.Read {
			reads++
		} else {
			writes++
		}
	}
	if writes != 900 || reads != 600 {
		t.Fatalf("%d writes and %d reads, want exactly rate × duration = 900 and 600", writes, reads)
	}
}

func TestQueriesRespectTenantKinds(t *testing.T) {
	w := workloadByName("mixed_durable")
	_, qs := generate(w, 5)
	kinds := map[string]int{}
	for _, q := range qs {
		kinds[q.Queries[0].Kind]++
		if q.Queries[0].Kind != "estimate" && w.Tenants[q.Tenant].Spec.Sketch != "countsketch" {
			t.Fatalf("a %s query went to %s, which does not answer it", q.Queries[0].Kind, w.Tenants[q.Tenant].Key)
		}
	}
	for kind, share := range map[string]float64{"estimate": 0.5, "point": 0.3, "topk": 0.2} {
		if got := float64(kinds[kind]) / float64(len(qs)); got < share-0.05 || got > share+0.05 {
			t.Errorf("%s is %.2f of the mix, want about %.2f", kind, got, share)
		}
	}
}

func TestTruthCountsAcknowledgedBatches(t *testing.T) {
	pool := genBatches(1, 8, 2, 0, 1.2)
	sent := []uint32{2, 0, 1, 0, 0, 0, 0, 3}
	truth := newTruth(2)
	truth.AddBatches(pool, sent)
	want := []*stream.Freq{stream.NewFreq(), stream.NewFreq()}
	for i, times := range sent {
		for k := uint32(0); k < times; k++ {
			for _, u := range pool[i].Updates {
				want[pool[i].Tenant].Apply(stream.Update{Item: u.Item, Delta: u.Delta})
			}
		}
	}
	for i := range want {
		if truth.freq[i].Fp(2) != want[i].Fp(2) || truth.freq[i].F0() != want[i].F0() {
			t.Errorf("tenant %d: F2 %v F0 %v, want %v %v", i, truth.freq[i].Fp(2), truth.freq[i].F0(), want[i].Fp(2), want[i].F0())
		}
	}
}

// An open loop must charge a server stall to every request that was due
// while it lasted, not only to the one that happened to be in flight.
func TestOpenLoopChargesStallToDueRequests(t *testing.T) {
	const (
		rate  = 500
		dur   = time.Second
		stall = 200 * time.Millisecond
	)
	ops := genSchedule(9, rate, 0, dur)
	stallAt := ops[len(ops)/2].Due
	// The fake server serves one request at a time and stalls once, so
	// both generator workers queue behind the stall.
	var busy atomic.Bool
	var stalled atomic.Bool
	start := time.Now()
	st := runOpen(ops, dur, nil, func(_ int, op Op) (int64, error) {
		for !busy.CompareAndSwap(false, true) {
			preciseSleep(20 * time.Microsecond)
		}
		defer busy.Store(false)
		if time.Since(start) >= stallAt && stalled.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		return 1, nil
	})
	if st.failed != 0 || st.attempted != len(ops) {
		t.Fatalf("%d attempted, %d failed, want %d and 0", st.attempted, st.failed, len(ops))
	}
	// Every request due in the first half of the stall waited at least
	// until the stall ended: at least half the stall each. There are
	// rate × stall/2 of them.
	wantSlow := uint64(rate * stall.Seconds() / 2 * 0.9)
	var slow uint64
	var total Hist
	for i := range st.write.win {
		total.Merge(&st.write.win[i])
	}
	for b, c := range total.counts {
		if bucketMid(b) >= float64(stall/2) {
			slow += uint64(c)
		}
	}
	if slow < wantSlow {
		t.Fatalf("%d requests waited half the stall or more; the %v stall at %d requests/s should have held back at least %d",
			slow, stall, rate, wantSlow)
	}
	if p50, _ := total.Quantile(0.5); p50 > float64(20*time.Millisecond) {
		t.Fatalf("median latency %v ns: the stall leaked into requests that were not due during it", p50)
	}
	if st.backlogMax < int(wantSlow) {
		t.Errorf("backlog peaked at %d requests, want at least %d during the stall", st.backlogMax, wantSlow)
	}
}
