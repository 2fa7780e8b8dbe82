package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// Cluster acceptance test: build the real sketchd binary, run three of
// them as one cluster on loopback (R=2, fast ship and probe cadences,
// shared seed), place tenants on a chosen victim via the placement
// endpoint, SIGKILL the victim while a feeder is streaming into one of
// its keyspaces, and verify:
//
//   - the feeder (client.UpdateRetry against a survivor) rides the
//     redirect-to-dead-owner window out and converges on the promoted
//     replica;
//   - keyspaces quiet since the last shipment survive failover with
//     bit-identical estimates (the replica's copy is the owner's
//     shipment, and shared seeds make restored sketches deterministic);
//   - the streamed keyspace's estimate lands in an ε envelope that
//     charges the replication staleness window against the bound (acked
//     but unshipped batches on the victim are the documented loss);
//   - a global top-k over a Zipf stream, asked of a survivor, redirects
//     to the promoted owner and returns the true heavy hitters with
//     weights within ε·‖f‖₂ of the exact feeder-tracked counts.

func clusterPlace(t *testing.T, base, key string) (owner string, replicas []string) {
	t.Helper()
	resp, err := http.Get(base + "/cluster/place?key=" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr struct {
		Owner    string   `json:"owner"`
		Replicas []string `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return pr.Owner, pr.Replicas
}

// keyOwnedBy generates key names until placement puts one where wanted
// says (owner == victim or owner != victim).
func keyOwnedBy(t *testing.T, base, prefix, victim string, ownedByVictim bool) string {
	t.Helper()
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("%s-%d", prefix, i)
		owner, _ := clusterPlace(t, base, key)
		if (owner == victim) == ownedByVictim {
			return key
		}
	}
	t.Fatalf("no %s key with ownedByVictim=%v in 64 tries", prefix, ownedByVictim)
	return ""
}

func TestClusterFailoverE2E(t *testing.T) {
	bin := sketchdBin(t)
	const eps = 0.25
	addrs := []string{reservePort(t), reservePort(t), reservePort(t)}
	urls := make([]string, len(addrs))
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	peers := strings.Join(urls, ",")
	procs := make([]*sketchdProc, len(addrs))
	for i := range addrs {
		procs[i] = startSketchd(t, bin,
			"-addr", addrs[i], "-node", urls[i], "-peers", peers,
			"-replicas", "2", "-ship-interval", "150ms",
			"-probe-interval", "100ms", "-suspect-after", "2",
			"-seed", "42", "-shards", "2", "-eps", fmt.Sprint(eps))
	}
	ctx := context.Background()

	// The victim is whoever owns the Zipf keyspace; every client in the
	// test talks to a survivor and lets forwarding find the owner.
	const hotKey = "hot-tenant"
	victim, hotReplicas := clusterPlace(t, urls[0], hotKey)
	if len(hotReplicas) != 2 {
		t.Fatalf("replica set %v, want 2 members", hotReplicas)
	}
	victimIdx := -1
	surv := ""
	for i, u := range urls {
		if u == victim {
			victimIdx = i
		} else if surv == "" {
			surv = u
		}
	}
	if victimIdx < 0 {
		t.Fatalf("placement returned non-member owner %q", victim)
	}
	vicF2 := keyOwnedBy(t, urls[0], "vf2", victim, true)
	survF2 := keyOwnedBy(t, urls[0], "sf2", victim, false)
	c := client.New(surv, &http.Client{Timeout: 10 * time.Second})

	for key, sk := range map[string]string{vicF2: "f2", survF2: "f2", hotKey: "countsketch"} {
		if _, err := c.CreateTenant(ctx, key, client.TenantSpec{Sketch: sk}); err != nil {
			t.Fatalf("create %s: %v", key, err)
		}
	}

	// Phase 1: known streams. vicF2 gets 1000 updates over 97 items (exact
	// F2 is computable); hotKey gets a Zipf stream with exact counts
	// tracked; survF2 gets a smaller stream on the survivor side.
	var batch []client.Update
	flush := func(key string) {
		if err := c.Update(ctx, key, batch); err != nil {
			t.Fatalf("phase-1 %s: %v", key, err)
		}
		batch = batch[:0]
	}
	phase1F2 := 0.0
	{
		counts := map[uint64]int64{}
		for i := 0; i < 1000; i++ {
			item := uint64(i % 97)
			counts[item]++
			batch = append(batch, client.Update{Item: item, Delta: 1})
			if len(batch) == 200 {
				flush(vicF2)
			}
		}
		flush(vicF2)
		for _, v := range counts {
			phase1F2 += float64(v * v)
		}
	}
	for i := 0; i < 500; i++ {
		batch = append(batch, client.Update{Item: uint64(i % 53), Delta: 1})
	}
	flush(survF2)

	hotCounts := map[uint64]int64{}
	{
		z := rand.NewZipf(rand.New(rand.NewSource(99)), 1.4, 1, 499)
		for i := 0; i < 4000; i++ {
			item := 5000 + z.Uint64()
			hotCounts[item]++
			batch = append(batch, client.Update{Item: item, Delta: 1})
			if len(batch) == 250 {
				flush(hotKey)
			}
		}
	}
	l2hot := 0.0
	for _, v := range hotCounts {
		l2hot += float64(v * v)
	}
	l2hot = math.Sqrt(l2hot)

	preKill := map[string]float64{}
	for _, key := range []string{vicF2, survF2, hotKey} {
		v, err := c.Estimate(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		preKill[key] = v
	}

	// Deterministic replication floor: make the victim ship everything it
	// owns right now, instead of trusting test timing against the cadence.
	resp, err := http.Post(victim+"/cluster/ship-now", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var shipped struct {
		Shipped int `json:"shipped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&shipped); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if shipped.Shipped < 2 {
		t.Fatalf("victim ship-now applied %d shipments, want >= 2 (vicF2 and hotKey)", shipped.Shipped)
	}

	// The feeder streams unique items into the victim-owned keyspace via
	// UpdateRetry and never stops during the kill: redirects to the dead
	// owner surface as transport errors, which re-send the batch until the
	// survivors' detector promotes the replica and forwarding re-routes.
	const feedBatch = 64
	var acked atomic.Int64
	feederStop := make(chan struct{})
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		seq := uint64(1 << 20)
		for {
			us := make([]client.Update, feedBatch)
			for i := range us {
				us[i] = client.Update{Item: seq, Delta: 1}
				seq++
			}
			if err := c.UpdateRetry(ctx, vicF2, us); err != nil {
				t.Errorf("feeder: %v", err)
				return
			}
			acked.Add(1)
			select {
			case <-feederStop:
				return
			default:
			}
		}
	}()

	time.Sleep(300 * time.Millisecond) // feeder in full flight
	if err := procs[victimIdx].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-procs[victimIdx].done
	// Batches acked up to here may have died with the victim (acked but
	// not yet shipped — the documented staleness window). Batches acked
	// after this point landed on the promoted owner.
	ackedPre := acked.Load()

	time.Sleep(2 * time.Second) // detector converges, feeder keeps going
	close(feederStop)
	select {
	case <-feederDone:
	case <-time.After(30 * time.Second):
		t.Fatal("feeder did not converge after failover")
	}
	if t.Failed() {
		t.FailNow()
	}
	ackedTotal := acked.Load()
	if ackedTotal <= ackedPre {
		t.Fatalf("no batches acknowledged after failover (pre=%d total=%d)", ackedPre, ackedTotal)
	}

	// Quiet keyspaces: the survivor-owned one never left its owner, and
	// the victim-owned Zipf one was shipped and untouched since — both
	// estimates must survive bit for bit.
	for _, key := range []string{survF2, hotKey} {
		got, err := c.Estimate(ctx, key)
		if err != nil {
			t.Fatalf("estimate %s after failover: %v", key, err)
		}
		if got != preKill[key] {
			t.Errorf("estimate %s = %v after failover, want exactly %v", key, got, preKill[key])
		}
	}

	// The streamed keyspace: phase-1 state was shipped, post-failover
	// batches landed on the promoted owner, and pre-kill feeder batches
	// are the at-most-one-ship-interval staleness loss. Lower bound
	// charges all of them; upper bound allows every ack plus duplicate
	// slack (an at-least-once retry of a unique-item batch adds 3 per
	// item to F2).
	got, err := c.Estimate(ctx, vicF2)
	if err != nil {
		t.Fatal(err)
	}
	low := (1 - eps) * (phase1F2 + float64(ackedTotal-ackedPre)*feedBatch)
	high := (1 + eps) * (phase1F2 + float64(ackedTotal)*feedBatch + 4*feedBatch)
	if got < low || got > high {
		t.Errorf("failed-over estimate %v outside [%v, %v] (acked %d pre-kill, %d total)",
			got, low, high, ackedPre, ackedTotal)
	}

	// Global top-k through a survivor: the query redirects to the promoted
	// owner and must return the true Zipf heavy hitters, each weight
	// within ε·‖f‖₂ of the exact tracked count.
	qbody, _ := json.Marshal(server.QueryRequest{
		Key: hotKey, Queries: []server.Query{{Kind: server.QueryTopK, K: 10}},
	})
	qresp, err := http.Post(surv+"/cluster/query", "application/json", bytes.NewReader(qbody))
	if err != nil {
		t.Fatal(err)
	}
	qraw, _ := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("global topk status %d: %s", qresp.StatusCode, qraw)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(qraw, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Answers) != 1 || len(qr.Answers[0].Items) == 0 {
		t.Fatalf("global topk returned no items: %s", qraw)
	}
	returned := map[uint64]float64{}
	for _, iw := range qr.Answers[0].Items {
		returned[uint64(iw.Item)] = iw.Weight
		if true2 := float64(hotCounts[uint64(iw.Item)]); math.Abs(iw.Weight-true2) > eps*l2hot {
			t.Errorf("topk weight for %d = %v, true count %v, |err| > ε·‖f‖₂ = %v",
				uint64(iw.Item), iw.Weight, true2, eps*l2hot)
		}
	}
	type kv struct {
		item  uint64
		count int64
	}
	var truth []kv
	for it, ct := range hotCounts {
		truth = append(truth, kv{it, ct})
	}
	sort.Slice(truth, func(i, j int) bool { return truth[i].count > truth[j].count })
	for _, hh := range truth[:3] {
		if _, ok := returned[hh.item]; !ok {
			t.Errorf("true heavy hitter %d (count %d) missing from global topk", hh.item, hh.count)
		}
	}

	// The survivors' view and health: victim down, nodes ready.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sresp, err := http.Get(surv + "/cluster/status")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Peers []struct {
				Addr string `json:"addr"`
				Down bool   `json:"down"`
			} `json:"peers"`
		}
		err = json.NewDecoder(sresp.Body).Decode(&st)
		sresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		downSeen := false
		for _, p := range st.Peers {
			if p.Addr == victim && p.Down {
				downSeen = true
			}
		}
		if downSeen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivor never marked the victim down in /cluster/status")
		}
		time.Sleep(50 * time.Millisecond)
	}
	h, ready, err := c.Healthz(ctx)
	if err != nil || !ready || h.Status != "ok" {
		t.Fatalf("survivor healthz: status=%+v ready=%v err=%v", h, ready, err)
	}

	// Clean shutdown of the survivors still exits 0 with the cluster
	// loops running.
	for i, p := range procs {
		if i == victimIdx {
			continue
		}
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-p.done:
			if err != nil {
				t.Fatalf("survivor %d SIGTERM exit: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("survivor %d did not exit after SIGTERM", i)
		}
	}
}
