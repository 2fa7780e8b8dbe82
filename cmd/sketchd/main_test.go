package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// TestMain runs the test binary as sketchd itself when SKETCHD_ARGS is set,
// so a test can watch main's exit status.
func TestMain(m *testing.M) {
	if args := os.Getenv("SKETCHD_ARGS"); args != "" {
		os.Args = append([]string{"sketchd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startRun drives run in a goroutine and hands back the bound address,
// the cancel that simulates the first signal, a counter of stop calls,
// and the error channel run's return lands on.
func startRun(t *testing.T, args ...string) (net.Addr, context.CancelFunc, *atomic.Int32, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var stops atomic.Int32
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, func() { stops.Add(1) }, args, ready)
	}()
	select {
	case addr := <-ready:
		return addr, cancel, &stops, errc
	case err := <-errc:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("run never became ready")
	}
	return nil, nil, nil, nil
}

// declare admits tenant key as a policy-none sketch on the sketchd at base.
func declare(t *testing.T, base, key, sketch string) {
	t.Helper()
	body := fmt.Sprintf(`{"key":%q,"spec":{"sketch":%q}}`, key, sketch)
	resp, err := http.Post(base+"/v2/keys", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("declare %s as %s: status %d", key, sketch, resp.StatusCode)
	}
}

// TestRunServesDrainsAndRecovers is the lifecycle round trip: run serves
// HTTP, a first signal drains it cleanly (calling stop so later signals
// reach the default handler), and a second run over the same data dir
// recovers the ingested state.
func TestRunServesDrainsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-data-dir", dir, "-fsync", "none", "-seed", "42"}
	addr, cancel, stops, errc := startRun(t, args...)
	base := "http://" + addr.String()

	declare(t, base, "k", "f2")
	body := strings.NewReader(`{"updates":[{"item":7,"delta":2},{"item":9,"delta":1}]}`)
	resp, err := http.Post(base+"/v1/update?key=k", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d", resp.StatusCode)
	}
	readEstimate := func(base string) string {
		resp, err := http.Get(base + "/v1/estimate?key=k")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate: status %d", resp.StatusCode)
		}
		var buf [256]byte
		n, _ := resp.Body.Read(buf[:])
		return string(buf[:n])
	}
	want := readEstimate(base)

	cancel() // first signal
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after signal")
	}
	if got := stops.Load(); got == 0 {
		t.Error("run never called stop(): a second signal would be swallowed instead of killing the process")
	}

	addr2, cancel2, _, errc2 := startRun(t, args...)
	if got := readEstimate("http://" + addr2.String()); got != want {
		t.Errorf("estimate after restart = %s, want %s", got, want)
	}
	cancel2()
	if err := <-errc2; err != nil {
		t.Fatalf("second run: %v", err)
	}
}

// TestListenerFailureIsADurableExit: when the listener dies under a durable
// server, run still shuts down — final checkpoints, log synced and closed —
// so under -fsync batch every acknowledged update survives and the static
// tenant recovers from its checkpoint alone, replaying nothing.
func TestListenerFailureIsADurableExit(t *testing.T) {
	var ln net.Listener
	listen = func(network, addr string) (net.Listener, error) {
		l, err := net.Listen(network, addr)
		ln = l
		return l, err
	}
	t.Cleanup(func() { listen = net.Listen })

	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-data-dir", dir, "-fsync", "batch", "-seed", "42"}
	addr, _, _, errc := startRun(t, args...)
	base := "http://" + addr.String()
	declare(t, base, "k", "kmv")
	for i := 0; i < 50; i++ {
		body := strings.NewReader(fmt.Sprintf(`{"updates":[{"item":%d,"delta":1}]}`, i))
		resp, err := http.Post(base+"/v1/update?key=k", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: status %d", i, resp.StatusCode)
		}
	}

	ln.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("run returned nil after its listener was closed")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after its listener was closed")
	}

	addr2, cancel2, _, errc2 := startRun(t, args...)
	base = "http://" + addr2.String()
	var health server.HealthResponse
	var est server.EstimateResponse
	for url, into := range map[string]any{"/v1/healthz": &health, "/v1/estimate?key=k": &est} {
		resp, err := http.Get(base + url)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(into)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, decode %v", url, resp.StatusCode, err)
		}
	}
	if health.Recovery == nil || health.Recovery.Tenants != 1 || health.Recovery.ReplayedUpdates != 0 {
		t.Errorf("recovery = %+v, want 1 tenant from its checkpoint with 0 updates replayed", health.Recovery)
	}
	if est.Estimate != 50 {
		t.Errorf("estimate after restart = %v, want all 50 acknowledged items", est.Estimate)
	}
	cancel2()
	if err := <-errc2; err != nil {
		t.Fatalf("second run: %v", err)
	}
}

// TestStopCalledWhileDrainHangs pins the second-signal fix: with an
// in-flight request pinning http.Server.Shutdown until -drain-timeout,
// stop() must still be called as soon as the first signal lands — that
// is what re-arms default signal disposition so a second SIGTERM kills
// the process mid-drain.
func TestStopCalledWhileDrainHangs(t *testing.T) {
	addr, cancel, stops, errc := startRun(t, "-addr", "127.0.0.1:0", "-drain-timeout", "5s")

	// A connection with a half-written request holds Shutdown at bay.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /v1/update?key=k HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the server read the partial request

	start := time.Now()
	cancel() // first signal: drain begins, Shutdown blocks on conn
	deadline := time.Now().Add(2 * time.Second)
	for stops.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stop() not called within 2s of the signal while drain hangs")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("stop() took %s, want immediate", d)
	}
	conn.Close()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after the hung connection closed")
	}
}

// TestHeldDataDirRefusesToServe: a second sketchd on a data directory a
// running one holds fails with the lock error, in process and as a process
// (non-zero exit), and its listener, bound before recovery, closes instead
// of serving the recovering stub. The first keeps serving.
func TestHeldDataDirRefusesToServe(t *testing.T) {
	dir := t.TempDir()
	addr, cancel, _, errc := startRun(t, "-addr", "127.0.0.1:0", "-data-dir", dir, "-fsync", "none")
	base := "http://" + addr.String()

	var second net.Listener
	listen = func(network, addr string) (net.Listener, error) {
		l, err := net.Listen(network, addr)
		second = l
		return l, err
	}
	t.Cleanup(func() { listen = net.Listen })
	err := run(context.Background(), func() {}, []string{"-addr", "127.0.0.1:0", "-data-dir", dir}, nil)
	if !errors.Is(err, wal.ErrLocked) {
		t.Fatalf("second run on a held data dir: err = %v, want wal.ErrLocked", err)
	}
	// Ask the listener itself, not its port: another listener may have taken
	// the port since. A deadline already past makes an open listener's
	// Accept return at once, with a timeout rather than net.ErrClosed.
	_ = second.(*net.TCPListener).SetDeadline(time.Now())
	if c, err := second.Accept(); !errors.Is(err, net.ErrClosed) {
		if c != nil {
			c.Close()
		}
		t.Errorf("the refused run's listener is still open: Accept = %v, want net.ErrClosed", err)
	}

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SKETCHD_ARGS=-addr 127.0.0.1:0 -data-dir "+dir)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 || !strings.Contains(string(out), wal.ErrLocked.Error()) {
		t.Errorf("sketchd on a held data dir: err = %v, output %q; want a non-zero exit naming the lock", err, out)
	}

	declare(t, base, "k", "f2") // the owner still serves
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("first run: %v", err)
	}
}

// TestRunRejectsBadConfig: flag and config errors surface as errors from
// run (main turns them into a fatal exit), not panics or silent serving.
func TestRunRejectsBadConfig(t *testing.T) {
	// -sketch and -policy among them: no flag picks a tenant's cell.
	for _, args := range [][]string{{"-no-such-flag"}, {"-sketch", "f2"}, {"-policy", "ring"}} {
		if err := run(context.Background(), func() {}, args, nil); err == nil {
			t.Errorf("unknown flag %v accepted", args)
		}
	}
	if err := run(context.Background(), func() {}, []string{"-data-dir", t.TempDir(), "-fsync", "bogus"}, nil); err == nil {
		t.Error("bad -fsync policy accepted")
	}
}
