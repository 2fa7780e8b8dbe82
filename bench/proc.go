package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// Sandbox owns everything a run leaves outside its own memory: the
// scratch directory under bench/out and every sketchd child. Close is the
// single exit path — normal return, failed check, SIGINT — and it kills
// the children, waits for them, and removes the directory.
type Sandbox struct {
	dir string // bench/out/run-<pid>

	mu    sync.Mutex
	procs []*Proc
}

// outDir is where the benchmark writes: build outputs, scratch
// directories, traces and result files. Nothing else in the checkout is
// touched.
const outDir = "out"

// repoRoot finds the checkout root from the benchmark's own directory,
// which is the working directory of both `go run .` and `go test`.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	root := filepath.Dir(wd)
	if _, err := os.Stat(filepath.Join(root, "cmd", "sketchd", "main.go")); err != nil {
		return "", fmt.Errorf("bench must run from its own directory inside the repository: %w", err)
	}
	return root, nil
}

func newSandbox() (*Sandbox, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Sandbox{dir: dir}, nil
}

// TempDir makes a fresh directory inside the sandbox.
func (s *Sandbox) TempDir(name string) (string, error) {
	return os.MkdirTemp(s.dir, name+"-")
}

// Close kills every child still running, waits for it, and removes the
// sandbox directory. Safe to call more than once and from the signal
// handler.
func (s *Sandbox) Close() {
	s.mu.Lock()
	procs := s.procs
	s.procs = nil
	s.mu.Unlock()
	for _, p := range procs {
		p.Kill()
	}
	_ = os.RemoveAll(s.dir) // scratch only; a leftover is reclaimed by the next run's RemoveAll
}

// openEnv locates the checkout, opens a sandbox and builds sketchd: what
// every run needs before its first workload. The caller closes env.sb.
func openEnv() (*runEnv, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	sb, err := newSandbox()
	if err != nil {
		return nil, err
	}
	bin, took, err := buildSketchd(root)
	if err != nil {
		sb.Close()
		return nil, err
	}
	return &runEnv{root: root, bin: bin, buildTook: took, sb: sb}, nil
}

// buildSketchd compiles cmd/sketchd from the checkout into bench/out and
// reports how long the build took. The go tool's own cache makes a
// rebuild of unchanged sources a sub-second no-op.
func buildSketchd(root string) (bin string, took time.Duration, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err = filepath.Abs(filepath.Join(outDir, "sketchd"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sketchd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/sketchd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// freeAddr reserves a loopback port by binding and releasing it. The
// kernel does not hand the port out again soon, and a restart after
// SIGKILL needs the address to stay the same.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// Proc is one sketchd child process.
type Proc struct {
	cmd  *exec.Cmd
	Addr string
	URL  string
	log  *os.File
	done chan struct{} // closed once Wait returned
}

// baseConfig is the sizing every sketchd of the benchmark runs with: the
// children get it as flags, the ladder's in-process servers as it stands.
func baseConfig() server.Config {
	return server.Config{Shards: 2, Eps: defaultEps, Delta: 0.05, N: universe, Seed: 7, MaxKeys: 64}
}

// commonFlags is baseConfig as sketchd flags.
func commonFlags() []string {
	c := baseConfig()
	return []string{
		"-shards", strconv.Itoa(c.Shards), "-eps", fmt.Sprint(c.Eps), "-delta", fmt.Sprint(c.Delta),
		"-n", strconv.FormatUint(c.N, 10), "-seed", strconv.FormatInt(c.Seed, 10), "-max-keys", strconv.Itoa(c.MaxKeys),
	}
}

// Start launches sketchd on addr with the common sizing plus extra flags.
// Its output goes to a log file in the sandbox, shown only on failure.
func (s *Sandbox) Start(bin, addr string, extra ...string) (*Proc, error) {
	logf, err := os.CreateTemp(s.dir, "sketchd-*.log")
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr}, commonFlags()...)
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &Proc{cmd: cmd, Addr: addr, URL: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries nothing
		close(p.done)
	}()
	s.mu.Lock()
	s.procs = append(s.procs, p)
	s.mu.Unlock()
	return p, nil
}

// Pid is the child's process id.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// Kill sends SIGKILL and waits until the child has ended.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-p.done
	p.log.Close()
}

// LogTail returns the last lines the child printed, for error messages.
func (p *Proc) LogTail() string {
	data, err := os.ReadFile(p.log.Name())
	if err != nil {
		return ""
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return string(bytes.Join(lines, []byte("\n")))
}

// WaitHealthy polls /v1/healthz until the node answers ready, the child
// exits, or ctx ends.
func (p *Proc) WaitHealthy(ctx context.Context, c *client.Client) error {
	for {
		if _, ready, err := c.Healthz(ctx); err == nil && ready {
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("sketchd on %s exited during start-up:\n%s", p.Addr, p.LogTail())
		case <-ctx.Done():
			return fmt.Errorf("sketchd on %s not healthy: %w\n%s", p.Addr, ctx.Err(), p.LogTail())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// procCPU reads utime+stime of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procHWM reads the peak resident set size of pid, in MiB, from VmHWM in
// /proc/<pid>/status.
func procHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// newHTTPClient is the generator's transport: keep-alive, at most conns
// idle connections per host, and redirects followed (a cluster node
// answers 307 for a keyspace it does not own). redirects, when non-nil,
// is called once per hop followed.
func newHTTPClient(conns int, redirects func()) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        4 * conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	if redirects != nil {
		hc.CheckRedirect = func(req *http.Request, via []*http.Request) error {
			if len(via) >= 4 {
				return errors.New("too many redirects")
			}
			redirects()
			return nil
		}
	}
	return hc
}
