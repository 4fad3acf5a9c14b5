// Command swpfperf is the repository benchmark. It drives one workload
// from outside the simulator — through the public Go APIs of sweep,
// core, interp, trace and prefetch, or through real swpfd processes —
// checks every output, and prints a report followed, as the last line
// of standard output, by one JSON object:
//
//	{"correct": true, "attempted": 28, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) repeats the untraced work, then runs it again with a
// span recorded around every call into a layer, and reports the
// per-layer metrics. NOTES.md describes the workloads and metrics.
//
// run.sh builds this command and swpfd from the checkout and runs it
// from the repository root:
//
//	bash swpfperf/run.sh --workload paper-full --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	swpfd    string // path of the swpfd binary (service workload)
	spans    string // directory the traced run writes its spans to
	tiny     bool   // tests: shrink every workload to workloads.Tiny sizes
}

// workloadFunc runs one workload and fills the report.
type workloadFunc func(opts options, rep *report) error

// workloadTable maps each workload name to the function that runs it.
var workloadTable = map[string]workloadFunc{
	"paper-full":  func(o options, r *report) error { return runSim(paperFull, o, r) },
	"timing-wide": func(o options, r *report) error { return runSim(timingWide, o, r) },
	"service":     runService,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadTable))
	for n := range workloadTable {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swpfperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&opts.seed, "seed", 1, "workload seed (timing-wide's generated kernels, service's job mix)")
	fs.Float64Var(&opts.seconds, "seconds", 25, "measure for about this long, in whole passes of fixed work")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&opts.swpfd, "swpfd", "", "swpfd binary (required by the service workload)")
	fs.StringVar(&opts.spans, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	fs.BoolVar(&opts.tiny, "tiny", false, "shrink every workload to test sizes (workloads.Tiny; 4 service jobs per client)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloadTable[opts.workload]
	if !ok {
		fmt.Fprintf(stderr, "swpfperf: unknown workload %q (have %s)\n", opts.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "swpfperf: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	opts.trace = trace == 1
	rep := newReport(opts)
	if err := drive(opts, rep); err != nil {
		fmt.Fprintf(stderr, "swpfperf: %s: %v\n", opts.workload, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "swpfperf: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's human-readable lines, metric values and
// correctness verdict.
type report struct {
	catalog   []metricDef
	traced    bool
	lines     []string
	values    map[string]float64
	attempted int
	failed    int
	correct   bool
}

func newReport(opts options) *report {
	cat := endToEnd
	if opts.trace {
		cat = perLayer
	}
	return &report{catalog: cat, traced: opts.trace, values: make(map[string]float64), correct: true}
}

// set records a metric value. Values outside the run's catalog are
// not printed, so workload code computes one set of numbers for both
// kinds of run.
func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

// note adds one line to the human-readable report.
func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and says why.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.note("CHECK FAILED: "+format, args...)
}

// count adds attempted and failed units of work.
func (r *report) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// write prints the report lines and then the JSON result line. Every
// metric of the run's catalog is printed: an end-to-end metric left
// unset is a bug, while a per-layer metric a workload does not exercise
// reads 0.
func (r *report) write(w io.Writer) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]metric)}
	if out.Attempted < 1 {
		return errors.New("no work attempted")
	}
	for _, d := range r.catalog {
		v, ok := r.values[d.name]
		if !ok && !r.traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{v, d.unit}
		r.note("%-36s %14.6g %s", d.name, v, d.unit)
	}
	r.note("fail_frac %.6g (%d of %d failed)", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, l := range r.lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
