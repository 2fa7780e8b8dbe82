package repro

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
)

// Crash-recovery acceptance tests: build the real sketchd binary, run it
// as a child process with a durable data directory, SIGKILL it mid-stream,
// corrupt the WAL tail the way a torn write would, restart, and verify
// every tenant — spec, policy, stream model, flip-budget state, estimate —
// comes back as the acknowledged stream left it.

var (
	sketchdBinOnce sync.Once
	sketchdBinPath string
	sketchdBinErr  error
)

// sketchdBin builds cmd/sketchd once per test process.
func sketchdBin(t *testing.T) string {
	t.Helper()
	sketchdBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "sketchd-bin-")
		if err != nil {
			sketchdBinErr = err
			return
		}
		sketchdBinPath = filepath.Join(dir, "sketchd")
		out, err := exec.Command("go", "build", "-o", sketchdBinPath, "./cmd/sketchd").CombinedOutput()
		if err != nil {
			sketchdBinErr = fmt.Errorf("go build ./cmd/sketchd: %v\n%s", err, out)
		}
	})
	if sketchdBinErr != nil {
		t.Fatal(sketchdBinErr)
	}
	return sketchdBinPath
}

// reservePort picks a free loopback port the child can bind. The kernel
// rarely reassigns it between Close and the exec, and the crash test
// needs a stable address across a restart so in-flight client retries
// reconnect to the reborn process.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

type sketchdProc struct {
	cmd  *exec.Cmd
	addr string
	done chan error // cmd.Wait result
}

// startSketchd launches the binary and blocks until its "listening on"
// log line reports the bound address.
func startSketchd(t *testing.T, bin string, args ...string) *sketchdProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j > 0 {
					select {
					case addrc <- rest[:j]:
					default:
					}
				}
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		done <- cmd.Wait()
		close(done) // later receives (the cleanup) see a closed channel
	}()
	p := &sketchdProc{cmd: cmd, done: done}
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-done
	})
	select {
	case p.addr = <-addrc:
		return p
	case err := <-done:
		t.Fatalf("sketchd exited before listening: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("sketchd never reported its listen address")
	}
	return nil
}

// TestCrashRecoveryE2E is the headline fault-injection test:
//
//  1. four tenants — mergeable f2, point-query countsketch, robust
//     f2+switching, turnstile f2 with live deletions — ingest under
//     -fsync always;
//  2. SIGKILL mid-stream while a client batch is in flight;
//  3. garbage appended to the WAL tail (torn final record);
//  4. restart on the same address, racing the client's UpdateRetry loop;
//  5. every quiet tenant's estimate must equal its pre-crash value
//     exactly — the robust tenant's flip count too, although phase 1 read
//     it between batches and recovery replays without a read — the
//     in-flight tenant's estimate must be within ε of its at-least-once
//     delivery window, and spec/policy/model/flip-budget state must all
//     survive;
//  6. SIGTERM then drains cleanly with exit code 0.
func TestCrashRecoveryE2E(t *testing.T) {
	bin := sketchdBin(t)
	dir := t.TempDir()
	addr := reservePort(t)
	args := []string{
		"-addr", addr, "-data-dir", dir, "-fsync", "always",
		"-checkpoint-every", "512", "-seed", "42", "-shards", "2", "-eps", "0.25",
	}
	proc := startSketchd(t, bin, args...)
	ctx := context.Background()
	c := client.New("http://"+addr, &http.Client{Timeout: 10 * time.Second})

	if _, err := c.CreateTenant(ctx, "plain", client.TenantSpec{Sketch: "f2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "hot", client.TenantSpec{Sketch: "countsketch"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "robust", client.TenantSpec{Sketch: "f2", Policy: "switching"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "turn", client.TenantSpec{Sketch: "f2", Model: "turnstile"}); err != nil {
		t.Fatal(err)
	}

	// Phase 1: fully acknowledged traffic into every tenant, the robust
	// one read after every batch.
	var batch []client.Update
	for i := 0; i < 1280; i++ {
		batch = append(batch, client.Update{Item: uint64(i % 193), Delta: 1})
		if len(batch) == 128 {
			for _, key := range []string{"plain", "hot", "robust"} {
				if err := c.Update(ctx, key, batch); err != nil {
					t.Fatalf("phase-1 update %s: %v", key, err)
				}
			}
			if _, err := c.Estimate(ctx, "robust"); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	for i := 0; i < 300; i++ {
		batch = append(batch, client.Update{Item: uint64(i % 37), Delta: 2})
	}
	for i := 0; i < 150; i++ {
		batch = append(batch, client.Update{Item: uint64(i % 37), Delta: -1})
	}
	if err := c.Update(ctx, "turn", batch); err != nil {
		t.Fatal(err)
	}

	// The pre-crash acknowledged baseline, flushed.
	preCrash := make(map[string]float64)
	for _, key := range []string{"plain", "hot", "robust", "turn"} {
		v, err := c.Estimate(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		preCrash[key] = v
	}
	switches := func() int {
		t.Helper()
		ks, err := c.KeyStats(ctx, "robust")
		if err != nil {
			t.Fatal(err)
		}
		if ks.Policy != "switching" || ks.Robustness == nil {
			t.Fatalf("robust tenant reads as policy=%q robustness=%v, want switching with state", ks.Policy, ks.Robustness)
		}
		return ks.Robustness.Switches
	}
	preCrashSwitches := switches()
	if preCrashSwitches == 0 {
		t.Fatal("phase 1 never made the robust tenant switch; the flip-count comparison would be vacuous")
	}

	// Phase 2: a feeder streams fresh unique items into "plain" via
	// UpdateRetry while we kill the server under it. Every batch the
	// feeder completes was acknowledged (pre-kill batches by the old
	// process, straddling/post-restart ones by the new); at most the one
	// straddling batch can be double-applied (at-least-once).
	const feedBatch = 64
	feederStop := make(chan struct{})
	feederDone := make(chan int, 1) // completed batches
	go func() {
		seq := uint64(1 << 20)
		n := 0
		for {
			us := make([]client.Update, feedBatch)
			for i := range us {
				us[i] = client.Update{Item: seq, Delta: 1}
				seq++
			}
			if err := c.UpdateRetry(ctx, "plain", us); err != nil {
				t.Errorf("feeder: %v", err)
				break
			}
			n++
			select {
			case <-feederStop:
				feederDone <- n
				return
			default:
			}
		}
		feederDone <- n
	}()

	time.Sleep(100 * time.Millisecond) // let the feeder get batches in flight
	if err := proc.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-proc.done

	// Torn tail: a crash mid-append leaves a partial record. Boot must
	// truncate it, not refuse to start.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err=%v)", dir, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xca, 0xfe, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart on the same address: the feeder's UpdateRetry loop is
	// hammering connection-refused right now and must reconnect and
	// converge on its own.
	proc2 := startSketchd(t, bin, args...)
	close(feederStop)
	var fed int
	select {
	case fed = <-feederDone:
	case <-time.After(30 * time.Second):
		t.Fatal("feeder did not converge after restart")
	}
	if t.Failed() {
		t.FailNow()
	}

	// Quiet tenants: recovery replays exactly the acknowledged stream, and
	// sketches are deterministic given the recovered seed — so estimates
	// match the pre-crash values bit for bit.
	for _, key := range []string{"hot", "robust", "turn"} {
		got, err := c.Estimate(ctx, key)
		if err != nil {
			t.Fatalf("estimate %s after crash: %v", key, err)
		}
		if got != preCrash[key] {
			t.Errorf("estimate %s = %v after crash, want pre-crash %v", key, got, preCrash[key])
		}
	}
	// The fed tenant: its F2 truth is preCrash(plain)'s stream plus fed
	// unique items — each delivered at least once, and only the single
	// straddling batch can be doubled (a double-applied unique item
	// contributes 4, not 1, to F2). ε bounds on both sides.
	const eps = 0.25
	got, err := c.Estimate(ctx, "plain")
	if err != nil {
		t.Fatal(err)
	}
	f2Phase1 := 0.0
	{
		counts := map[uint64]int64{}
		for i := 0; i < 1280; i++ {
			counts[uint64(i%193)]++
		}
		for _, v := range counts {
			f2Phase1 += float64(v * v)
		}
	}
	low := (1 - eps) * (f2Phase1 + float64(fed*feedBatch))
	high := (1 + eps) * (f2Phase1 + float64(fed*feedBatch) + 3*feedBatch)
	if got < low || got > high {
		t.Errorf("fed tenant estimate %v outside [%v, %v] (fed %d batches)", got, low, high, fed)
	}

	// Specs, policies, stream models, and flip-budget state all survive.
	if got := switches(); got != preCrashSwitches {
		t.Errorf("robust tenant recovered %d switches, want pre-crash %d", got, preCrashSwitches)
	}
	ks, err := c.KeyStats(ctx, "turn")
	if err != nil {
		t.Fatal(err)
	}
	if ks.Model != "turnstile" {
		t.Errorf("turnstile tenant recovered with model %q", ks.Model)
	}
	if ks.DeletedMass == 0 {
		t.Error("turnstile deletions lost across crash recovery")
	}
	ks, err = c.KeyStats(ctx, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if !ks.PointQueries {
		t.Error("countsketch tenant lost point-query capability across recovery")
	}

	// Clean exit: SIGTERM drains, checkpoints, and exits 0.
	if err := proc2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-proc2.done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sketchd did not exit after SIGTERM")
	}

	// One more boot proves the clean-shutdown checkpoints load too.
	startSketchd(t, bin, args...)
	for _, key := range []string{"hot", "robust", "turn"} {
		got, err := c.Estimate(ctx, key)
		if err != nil {
			t.Fatalf("estimate %s after clean restart: %v", key, err)
		}
		if got != preCrash[key] {
			t.Errorf("estimate %s = %v after clean restart, want %v", key, got, preCrash[key])
		}
	}
	if got := switches(); got != preCrashSwitches {
		t.Errorf("robust tenant has %d switches after clean restart, want %d", got, preCrashSwitches)
	}
}

// TestSecondSignalForceKills pins the shutdown bugfix: with an in-flight
// request pinning the drain (a connection that never finishes sending its
// body), the first SIGTERM starts a graceful drain — and a second SIGTERM
// must kill the process immediately instead of being swallowed by the
// still-installed signal handler.
func TestSecondSignalForceKills(t *testing.T) {
	bin := sketchdBin(t)
	proc := startSketchd(t, bin, "-addr", "127.0.0.1:0", "-drain-timeout", "60s")

	conn, err := net.Dial("tcp", proc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /v1/update?key=k HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	if err := proc.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-proc.done:
		t.Fatalf("exited after one SIGTERM despite the hung request (err=%v); drain should still be waiting", err)
	case <-time.After(500 * time.Millisecond):
	}

	if err := proc.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-proc.done: // killed by the re-armed default disposition
	case <-time.After(3 * time.Second):
		t.Fatal("second SIGTERM did not kill the process: the handler swallowed it")
	}
}
