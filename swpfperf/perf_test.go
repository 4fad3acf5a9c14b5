package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// swpfdBin is the swpfd binary the service workload drives, built once
// by TestMain.
var swpfdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "swpfperf-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	swpfdBin = filepath.Join(dir, "swpfd")
	if out, err := exec.Command("go", "build", "-o", swpfdBin, "repro/cmd/swpfd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building swpfd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestTracedPassLeavesStatisticsUnchanged checks that the decorated core
// model and the span recording do not perturb the simulation: a traced
// pass digests to the same stats_sha256 as sweep.Runner's.
func TestTracedPassLeavesStatisticsUnchanged(t *testing.T) {
	for _, sw := range []simWorkload{paperFull, timingWide} {
		t.Run(sw.name, func(t *testing.T) {
			reqs := sw.grid(sw.pool(7, true)).Expand()
			want := digest(reqs, runPass(reqs, false).set.Results())
			rep := newReport(options{trace: true})
			tp := tracedPass(reqs, rep)
			if got := digest(reqs, tp.results); got != want {
				t.Errorf("traced stats_sha256 %s, untraced %s", got, want)
			}
			if !rep.correct {
				t.Errorf("traced pass failed a check:\n%s", strings.Join(rep.lines, "\n"))
			}
		})
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests read (JSON
// field names match case-insensitively).
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryMetricIsPrinted runs every workload of BENCHMARK.json at
// test sizes, untraced and traced, and checks that the last line of
// output is a correct result carrying every metric BENCHMARK.json names
// for that kind of run, with its unit.
func TestEveryMetricIsPrinted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) == 0 || len(bj.EndToEnd) == 0 || len(bj.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json lists no workloads or metrics")
	}
	spans := t.TempDir()
	for _, w := range bj.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{bj.EndToEnd, bj.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "0", "--trace", fmt.Sprint(trace),
					"--tiny", "--swpfd", swpfdBin, "--spans", spans}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case trace == 0 && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(64 - i)
	}
	if v, pct := tail(xs); v != 54 || fmt.Sprintf("%.1f", pct) != "84.4" {
		t.Errorf("tail of 1..64 = %v at p%.1f, want 54 at p84.4", v, pct)
	}
	if v, pct := tail([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Errorf("tail of 3 samples = %v at p%v, want the largest at p100", v, pct)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
