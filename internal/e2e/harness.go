// Package e2e is the real-binary test harness for the sweep fabric:
// it builds the actual swpfd and swpfctl binaries once per test run,
// starts an N-worker fleet on ephemeral ports, and drives it through
// swpfctl — the same processes and protocol a user runs, not httptest
// stand-ins. The helpers are exported so future packages can reuse
// them.
//
// Everything here is gated behind -short: `go test -short` skips the
// builds and the fleets entirely.
package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Binaries are built once per test run, into a directory TestMain
// removes.
var (
	binOnce sync.Once
	binDir  string
	binErr  error
)

// BuildBinaries compiles swpfd and swpfctl (once per run, shared by
// every test) and returns their paths. Skips the calling test under
// -short.
func BuildBinaries(t *testing.T) (swpfd, swpfctl string) {
	t.Helper()
	if testing.Short() {
		t.Skip("real-binary e2e skipped in -short mode")
	}
	binOnce.Do(func() {
		binDir, binErr = os.MkdirTemp("", "swpf-e2e-bin-")
		if binErr != nil {
			return
		}
		for _, name := range []string{"swpfd", "swpfctl"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, name), "repro/cmd/"+name)
			cmd.Env = os.Environ()
			if out, err := cmd.CombinedOutput(); err != nil {
				binErr = fmt.Errorf("building %s: %v\n%s", name, err, out)
				return
			}
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return filepath.Join(binDir, "swpfd"), filepath.Join(binDir, "swpfctl")
}

// cleanupBinaries removes the shared build directory; the package's
// TestMain calls it after the run.
func cleanupBinaries() {
	if binDir != "" {
		os.RemoveAll(binDir)
	}
}

// FleetConfig shapes a StartFleet fleet.
type FleetConfig struct {
	// Workers is the number of `swpfd -worker` processes (the
	// coordinator itself runs zero local workers).
	Workers int
	// StoreDir, when non-empty, is the coordinator's -store directory.
	StoreDir string
	// LeaseTTL, when non-zero, is passed as -lease-ttl.
	LeaseTTL time.Duration
	// LeaseBatch, when non-zero, is passed as -lease-batch (coordinator
	// and workers).
	LeaseBatch int
	// Jobs is the per-worker sweep pool size; 0 means 2 (fleets in
	// tests share one machine, so keep the pools small).
	Jobs int
}

// Fleet is one running coordinator + N worker processes.
type Fleet struct {
	t       *testing.T
	swpfd   string
	swpfctl string
	cfg     FleetConfig

	// URL is the coordinator's base URL (ephemeral port).
	URL string

	coordinator *process
	workers     []*process
}

// process is one child with captured stderr.
type process struct {
	cmd  *exec.Cmd
	name string

	mu     sync.Mutex
	stderr bytes.Buffer
	lines  chan string
}

// start launches a child, scanning its stderr into both a buffer (for
// failure dumps) and a line channel (for readiness probes).
func start(t *testing.T, name string, bin string, args ...string) *process {
	t.Helper()
	p := &process{name: name, lines: make(chan string, 64)}
	p.cmd = exec.Command(bin, args...)
	// Neutralize ambient store/client configuration: fleets must be
	// shaped only by the flags the test passes.
	p.cmd.Env = append(os.Environ(), "SWPF_STORE=", "SWPFCTL_ADDR=", "SWPFCTL_CONFIG=")
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stdout = io.Discard
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			fmt.Fprintln(&p.stderr, line)
			p.mu.Unlock()
			select {
			case p.lines <- line:
			default:
			}
		}
		close(p.lines)
	}()
	t.Cleanup(func() { p.kill() })
	return p
}

// waitLine blocks until stderr produces a line containing substr and
// returns it.
func (p *process) waitLine(t *testing.T, substr string, timeout time.Duration) string {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("%s exited before printing %q; stderr:\n%s", p.name, substr, p.dump())
			}
			if strings.Contains(line, substr) {
				return line
			}
		case <-deadline:
			t.Fatalf("%s did not print %q within %s; stderr:\n%s", p.name, substr, timeout, p.dump())
		}
	}
}

// logAttr extracts the value of a `key=value` attribute from one slog
// text line; values the handler quoted are unquoted.
func logAttr(t *testing.T, line, key string) string {
	t.Helper()
	v, ok := attrValue(line, key)
	if !ok {
		t.Fatalf("log line %q has no %s attribute", line, key)
	}
	return v
}

// attrValue is logAttr's non-fatal form, for probing lines that may
// not carry the attribute.
func attrValue(line, key string) (string, bool) {
	i := strings.Index(line, " "+key+"=")
	if i < 0 {
		return "", false
	}
	v := line[i+len(key)+2:]
	if strings.HasPrefix(v, `"`) {
		if uq, err := strconv.Unquote(v[:strings.Index(v[1:], `"`)+2]); err == nil {
			return uq, true
		}
	}
	if j := strings.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return strings.TrimSpace(v), true
}

func (p *process) dump() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// kill SIGKILLs the child and reaps it; idempotent.
func (p *process) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

// StartFleet boots a coordinator on an ephemeral port plus cfg.Workers
// worker processes, waits for every process to report ready, and
// registers cleanup kills. The coordinator runs with -local-workers 0,
// so all simulation happens in the worker processes.
func StartFleet(t *testing.T, cfg FleetConfig) *Fleet {
	t.Helper()
	swpfd, swpfctl := BuildBinaries(t)
	if cfg.Jobs == 0 {
		cfg.Jobs = 2
	}

	args := []string{"-addr", "127.0.0.1:0", "-local-workers", "0", "-jobs", fmt.Sprint(cfg.Jobs)}
	if cfg.StoreDir != "" {
		args = append(args, "-store", cfg.StoreDir)
	}
	if cfg.LeaseTTL != 0 {
		args = append(args, "-lease-ttl", cfg.LeaseTTL.String())
	}
	if cfg.LeaseBatch != 0 {
		args = append(args, "-lease-batch", fmt.Sprint(cfg.LeaseBatch))
	}
	f := &Fleet{t: t, swpfd: swpfd, swpfctl: swpfctl, cfg: cfg}
	f.coordinator = start(t, "coordinator", swpfd, args...)

	// The daemon logs the resolved listen address once the socket is
	// bound — with -addr :0 this is the only way to learn the port. The
	// line is slog text: `... msg=listening addr=127.0.0.1:NNNN`.
	line := f.coordinator.waitLine(t, "msg=listening", 30*time.Second)
	addr := logAttr(t, line, "addr")
	f.URL = "http://" + addr

	for i := 0; i < cfg.Workers; i++ {
		f.AddWorker()
	}
	return f
}

// AddWorker starts one more worker process against the coordinator and
// waits for it to come up — fault-injection flows kill a worker and
// then refill the fleet.
func (f *Fleet) AddWorker() {
	f.t.Helper()
	i := len(f.workers)
	wargs := []string{"-worker", f.URL, "-name", fmt.Sprintf("w%d", i), "-jobs", fmt.Sprint(f.cfg.Jobs)}
	if f.cfg.LeaseBatch != 0 {
		wargs = append(wargs, "-lease-batch", fmt.Sprint(f.cfg.LeaseBatch))
	}
	w := start(f.t, fmt.Sprintf("worker-%d", i), f.swpfd, wargs...)
	w.waitLine(f.t, "msg=pulling", 30*time.Second)
	f.workers = append(f.workers, w)
}

// SignalWorker sends a signal to worker i — SIGSTOP freezes a worker
// mid-batch so a test can take a stable look at (or then kill) a
// process that provably holds a lease.
func (f *Fleet) SignalWorker(i int, sig os.Signal) {
	f.t.Helper()
	if err := f.workers[i].cmd.Process.Signal(sig); err != nil {
		f.t.Fatalf("signaling worker %d with %v: %v", i, sig, err)
	}
}

// KillWorker SIGKILLs worker i — the fault-injection hook. The fleet's
// lease expiry must recover its in-flight cells.
func (f *Fleet) KillWorker(i int) {
	f.t.Helper()
	w := f.workers[i]
	if err := w.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		f.t.Fatalf("killing worker %d: %v", i, err)
	}
	w.cmd.Wait()
}

// Swpfctl runs the real swpfctl binary against the fleet's coordinator
// and returns its stdout; the test fails on a non-zero exit.
func (f *Fleet) Swpfctl(args ...string) string {
	f.t.Helper()
	out, err := f.TrySwpfctl(args...)
	if err != nil {
		f.t.Fatalf("swpfctl %v: %v", args, err)
	}
	return out
}

// TrySwpfctl is Swpfctl without the failure fatal — for error-path
// assertions.
func (f *Fleet) TrySwpfctl(args ...string) (string, error) {
	argv := append([]string{args[0], "-addr", f.URL}, args[1:]...)
	cmd := exec.Command(f.swpfctl, argv...)
	cmd.Env = append(os.Environ(), "SWPFCTL_ADDR=", "SWPFCTL_CONFIG=")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return stdout.String(), fmt.Errorf("%w\nstderr:\n%s", err, stderr.String())
	}
	return stdout.String(), nil
}

// FleetStats is the slice of GET /fleet the e2e assertions read.
type FleetStats struct {
	Queue struct {
		Pending    int   `json:"pending"`
		Leased     int   `json:"leased"`
		Completed  int64 `json:"completed"`
		CacheHits  int64 `json:"cache_hits"`
		DedupHits  int64 `json:"dedup_hits"`
		Requeued   int64 `json:"requeued"`
		DupDropped int64 `json:"dup_dropped"`
		Workers    []struct {
			Name string `json:"name"`
		} `json:"workers"`
	} `json:"queue"`
	Store *struct {
		Hits, Misses, Puts int64
	} `json:"store"`
}

// Stats fetches the coordinator's /fleet snapshot.
func (f *Fleet) Stats() FleetStats {
	f.t.Helper()
	resp, err := http.Get(f.URL + "/fleet")
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		f.t.Fatal(err)
	}
	return fs
}

// CoordinatorStderr returns everything the coordinator has written to
// stderr so far — for failure diagnostics.
func (f *Fleet) CoordinatorStderr() string { return f.coordinator.dump() }
