// Command golden dumps exhaustive simulator statistics for a matrix of
// workloads, systems and variants as deterministic JSON. Engine
// refactors that claim bit-identical behaviour are checked by diffing
// two dumps:
//
//	git stash && go run ./cmd/golden > /tmp/before.json && git stash pop
//	go run ./cmd/golden > /tmp/after.json
//	diff /tmp/before.json /tmp/after.json
//
// The matrix is executed by the parallel sweep engine (-jobs, default
// all CPUs); the dump is byte-identical for every worker count, so
// `golden -jobs 1` against `golden -jobs N` doubles as the engine's
// serial-vs-parallel equivalence check.
//
// The workload sizes are reduced relative to the benchmark defaults so
// a full dump takes seconds, while still covering every variant, every
// machine, both TLB page sizes' behaviours and the hardware
// prefetcher. -hwpf widens the matrix across hardware-prefetcher
// models (internal/hwpf); `golden -hwpf stride` pins the ported
// streamer bit-identical to the pre-hwpf engine. -core does the same
// for CPU core timing models (internal/sim coremodel.go); `golden
// -core interval` pins the ported issue-interval core bit-identical
// to the pre-axis engine.
//
// -store DIR (default $SWPF_STORE) persists per-cell results in the
// content-addressed cache of internal/store, so repeated dumps cost
// one disk read per cell; dumps are byte-identical either way. Use
// -no-store to force fresh simulation.
//
// -exec replay dumps through the record/replay split (internal/trace):
// each (workload, variant) is interpreted once and the trace retimed
// on every machine x hwpf cell. The dump is byte-identical to the
// default -exec direct — the record format deliberately carries no
// mode field — so diffing a replay dump against a direct one is the
// whole-pipeline equivalence check for the trace subsystem (CI's
// nightly job does exactly that, at jobs 1 and 8).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

type record struct {
	Workload string
	System   string
	Variant  string
	// HWPF labels the hardware-prefetcher model, but only when the
	// -hwpf axis selects more than one (derived configs keep the
	// machine name, so multi-model dumps would otherwise repeat
	// identical labels with different stats). Single-model dumps omit
	// it, keeping the default and `-hwpf stride` dumps byte-identical
	// to the pre-hwpf engine.
	HWPF string `json:",omitempty"`
	// Core labels the CPU core timing model, under the same rule as
	// HWPF: emitted only when the -core axis selects more than one
	// model, so single-model dumps stay byte-identical to pre-axis
	// dumps.
	Core string `json:",omitempty"`
	// The statistics are the result store's snapshot, so a dump holds
	// every statistic a store line or a completion report carries.
	core.ResultData
}

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp): // usage already printed; exit 0
	default:
		fmt.Fprintln(os.Stderr, "golden:", err)
		os.Exit(1)
	}
}

// matrix returns the dump's workload set: the standard reduced sizes,
// or tiny inputs when tiny is set (used by tests to keep the
// serial-vs-parallel diff fast).
func matrix(tiny bool) []*workloads.Workload {
	if tiny {
		return workloads.Tiny()
	}
	return []*workloads.Workload{
		workloads.IS(1<<13, 1<<17),
		workloads.CG(1024, 48),
		workloads.RA(17, 1<<11),
		workloads.HJ(1<<12, 2),
		workloads.HJ(1<<12, 8),
		workloads.G500(10, 8),
	}
}

// run is the testable body of the command.
func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jobs = fs.Int("jobs", 0, "worker goroutines (0 = all CPUs, 1 = serial)")
		tiny = fs.Bool("tiny", false, "tiny workload sizes (fast smoke dump)")
		hwpf = fs.String("hwpf", "", "hardware-prefetcher axis: comma-separated models among "+strings.Join(sweep.HWPrefetcherAxis().Names(), ",")+" (default: default)")
		cm   = fs.String("core", "", "core-model axis: comma-separated models among "+strings.Join(sweep.CoreAxis().Names(), ",")+" (default: default)")
		exec = fs.String("exec", "", "execution mode: direct (interpret every cell) or replay (record each workload/variant once, retime everywhere); dumps are byte-identical either way")
	)
	resolveStore := store.BindFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return err
	}

	systems, err := sweep.ParseSystems("")
	if err != nil {
		return err
	}
	hws, err := sweep.ParseHWPrefetchers(*hwpf)
	if err != nil {
		return err
	}
	cms, err := sweep.ParseCores(*cm)
	if err != nil {
		return err
	}
	mode, err := core.ParseExecMode(*exec)
	if err != nil {
		return err
	}
	grid := sweep.Grid{
		Workloads:     matrix(*tiny),
		Systems:       systems,
		HWPrefetchers: hws,
		Cores:         cms,
		Variants:      sweep.Variants(),
		Options:       core.Options{Hoist: true},
		Execs:         []core.ExecMode{mode},
	}
	runner := sweep.Runner{Jobs: *jobs}
	if st, err := resolveStore(); err != nil {
		return err
	} else if st != nil {
		runner.Cache = st
		runner.OnPutError = store.PutWarner(stderr)
	}
	set, err := grid.RunWith(runner)
	if err != nil {
		return err
	}

	out := make([]record, 0, len(set.Outcomes))
	for i := range set.Outcomes {
		o := &set.Outcomes[i]
		rec := record{Workload: o.Workload.Name, System: o.System.Name, Variant: string(o.Variant), ResultData: o.Result.Data()}
		if len(hws) > 1 {
			rec.HWPF = o.System.HWPrefetcherName()
		}
		if len(cms) > 1 {
			rec.Core = o.System.CoreName()
		}
		out = append(out, rec)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
