// Command swpfbench regenerates the figures of the evaluation section
// of Ainsworth & Jones (CGO 2017) on the simulated machines, and runs
// ad-hoc experiment grids. The cells of every selected figure run as
// one deduplicated sweep on a worker pool (-jobs, default all CPUs),
// with tables byte-identical to a serial run.
//
// Usage:
//
//	swpfbench -exp all                 # every figure (several minutes)
//	swpfbench -exp fig4 -system A53    # one figure
//	swpfbench -exp fig6 -bench RA      # one look-ahead sweep
//	swpfbench -exp swhw                # software-vs-hardware prefetch table
//	swpfbench -quick                   # reduced input sizes
//	swpfbench -jobs 1                  # serial execution
//	swpfbench -list                    # enumerate every grid axis
//
// Ad-hoc grids cross user-chosen workloads, systems, hardware
// prefetchers and variants and dump per-run statistics:
//
//	swpfbench -sweep -workloads IS,CG -systems Haswell,A53 -variants plain,auto
//	swpfbench -sweep -hwpf none,stride,imp -variants plain,auto
//	swpfbench -sweep -quick -variants plain,manual -c 16 -json
//	swpfbench -sweep -gen 8 -workloads GEN -variants plain,auto
//	swpfbench -sweep -exec replay -systems Haswell,A53  # record once, retime per machine
//
// -tune searches the prefetch configuration space (internal/tune)
// instead of running a fixed grid: it finds the (look-ahead, depth,
// hoist, hardware-prefetcher) configuration with the best speedup over
// the no-prefetch baseline for each selected workload × system pair
// and reports the best point plus the full look-ahead sensitivity
// curve (CSV, or JSON with -json):
//
//	swpfbench -tune -workloads IS,RA -systems A53,Haswell
//	swpfbench -tune -strategy hillclimb -hwpf default,none,imp
//	swpfbench -tune -cs 16,32,64,128 -depths 0,1,2 -hoists false,true -json
//	swpfbench -exp lookahead            # the tuner-built sensitivity figure
//
// -exec replay routes the grid through the record/replay split
// (internal/trace): each (workload, variant) is interpreted once and
// the trace retimed on every machine x hwpf cell, with statistics
// byte-identical to direct execution (the exec CSV column records the
// mode). -trace FILE skips simulation of the repo's own kernels
// entirely and retimes an externally captured address trace (one
// "pc addr size kind" line per access; docs/trace.md has the grammar)
// across the selected -systems and -hwpf axes.
//
// -gen N adds N randomly generated kernels (internal/gen, seeded by
// -gen-seed) to the selectable pool — the open-ended scenario family
// the differential-fuzzing harness checks (see docs/testing.md).
//
// -store DIR (default $SWPF_STORE) persists per-run results in the
// content-addressed cache of internal/store: re-running a figure or a
// grid re-simulates only cells the store has not seen, with output
// byte-identical to a fresh run. -no-store forces fresh simulation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hwpf"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/tune"
	"repro/internal/uarch"
	wkl "repro/internal/workloads"
)

// errParse marks a flag-parsing failure the FlagSet has already
// reported to stderr.
var errParse = errors.New("flag parse")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp): // usage already printed; exit 0
	case errors.Is(err, errParse):
		os.Exit(2) // the FlagSet already reported the problem
	default:
		fmt.Fprintln(os.Stderr, "swpfbench:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swpfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "experiment: fig2, fig4, fig5, fig6, fig7, fig8, fig9, fig10, swhw, cores, lookahead, all")
		system = fs.String("system", "", "restrict fig4/swhw to one system, or lookahead to a system list (Haswell, XeonPhi, A57, A53)")
		wl     = fs.String("bench", "", "restrict fig6 to one benchmark, or lookahead to a benchmark list (IS, CG, RA, HJ-2)")
		quick  = fs.Bool("quick", false, "reduced input sizes")
		csv    = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jobs   = fs.Int("jobs", 0, "worker goroutines (0 = all CPUs, 1 = serial)")
		list   = fs.Bool("list", false, "list workloads, systems, variants and hardware prefetchers, then exit")

		doSweep   = fs.Bool("sweep", false, "run an ad-hoc grid instead of a figure (see -workloads/-systems/-variants/-hwpf)")
		workloads = fs.String("workloads", "", "sweep: comma-separated workloads, exact or prefix (default: all)")
		systems   = fs.String("systems", "", "sweep: comma-separated systems (default: all)")
		variants  = fs.String("variants", "", "sweep: comma-separated variants among "+strings.Join(sweep.VariantAxis().Names(), ",")+" (default: plain,auto)")
		hwpfAxis  = fs.String("hwpf", "", "sweep: comma-separated hardware prefetchers among "+strings.Join(sweep.HWPrefetcherAxis().Names(), ",")+" (default: default)")
		coreAxis  = fs.String("core", "", "sweep: comma-separated core models among "+strings.Join(sweep.CoreAxis().Names(), ",")+" (default: default)")
		genN      = fs.Int("gen", 0, "sweep: add N generated kernels (internal/gen) to the selectable workload pool as GEN-00..")
		genSeed   = fs.Uint64("gen-seed", wkl.SyntheticDefaultSeed, "sweep: generator seed for -gen kernels")
		execAxis  = fs.String("exec", "", "sweep: comma-separated execution modes among "+strings.Join(sweep.ExecModeAxis().Names(), ",")+" (default: direct); replay interprets each workload/variant once and retimes it on every machine")
		traceFile = fs.String("trace", "", "replay an imported text trace (one \"pc addr size kind\" access per line; see docs/trace.md) across -systems x -hwpf x -core, then exit")
		c         = fs.Int64("c", 0, "sweep: look-ahead constant (0 = the paper's 64)")
		depth     = fs.Int("depth", 0, "sweep: stagger depth limit (0 = unlimited)")
		hoist     = fs.Bool("hoist", false, "sweep: enable loop hoisting in the automatic pass")
		jsonOut   = fs.Bool("json", false, "sweep/tune: emit JSON instead of CSV")

		doTune   = fs.Bool("tune", false, "search (c, depth, hoist, hwpf) for the best speedup over the no-prefetch baseline (see -strategy and the ladder flags)")
		strategy = fs.String("strategy", "", "tune: search strategy among exhaustive,hillclimb (default: exhaustive)")
		csLadder = fs.String("cs", "", "tune: comma-separated look-ahead search ladder (default 1,2,4,...,1024)")
		depths   = fs.String("depths", "", "tune: comma-separated stagger-depth search ladder (default 0)")
		hoists   = fs.String("hoists", "", "tune: comma-separated hoist search ladder among false,true (default false)")

		verbose = fs.Bool("v", false, "log execution progress to stderr (structured, debug level)")
	)
	resolveStore := store.BindFlags(fs)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errParse, err)
	}

	log := obs.Discard()
	if *verbose {
		log = slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}

	q := bench.Full
	if *quick {
		q = bench.Quick
	}

	if *list {
		return writeAxes(stdout, q)
	}

	if *traceFile != "" {
		// The trace fixes the workload, the variant and the execution;
		// only the timing axes apply to it.
		var fixed []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workloads", "variants", "exec", "c", "depth", "hoist", "gen", "sweep", "tune":
				fixed = append(fixed, "-"+f.Name)
			}
		})
		if len(fixed) > 0 {
			return fmt.Errorf("-trace fixes the workload, variant and execution mode; %s cannot be given with it", strings.Join(fixed, ", "))
		}
		return replayImported(*traceFile, *systems, *hwpfAxis, *coreAxis, *jsonOut, stdout)
	}

	var cache sweep.Cache
	var onPutError func(sweep.Request, error)
	if st, err := resolveStore(); err != nil {
		return err
	} else if st != nil {
		cache = st
		onPutError = store.PutWarner(stderr)
	}

	// The ad-hoc modes (-sweep and -tune) build the shared grid spec of
	// internal/sweep — the same struct swpfd decodes from POST bodies
	// and swpfctl builds from flags, so validation lives in one place.
	spec := sweep.Spec{
		Workloads: *workloads,
		Systems:   *systems,
		Variants:  *variants,
		HWPF:      *hwpfAxis,
		Core:      *coreAxis,
		Exec:      *execAxis,
		C:         *c,
		Depth:     *depth,
		Hoist:     *hoist,
		Quality:   q.PoolName(),
		Gen:       *genN,
		GenSeed:   *genSeed,
	}

	if *doTune {
		tsp := tune.Spec{Spec: spec, Strategy: *strategy, Cs: *csLadder, Depths: *depths, Hoists: *hoists}
		log.Debug("tune", "strategy", tsp.Strategy, "workloads", tsp.Workloads, "systems", tsp.Systems)
		start := time.Now()
		rep, err := tune.Tuner{
			Runner: sweep.Runner{Jobs: *jobs, Cache: cache, OnPutError: onPutError},
		}.Run(tsp)
		if err != nil {
			return err
		}
		log.Debug("tune done", "dur", time.Since(start).Round(time.Millisecond).String())
		if *jsonOut {
			return rep.WriteJSON(stdout)
		}
		return rep.WriteCSV(stdout)
	}

	if *doSweep {
		grid, err := spec.ToGrid()
		if err != nil {
			return err
		}
		log.Debug("sweep", "cells", len(grid.Expand()), "jobs", *jobs)
		start := time.Now()
		set, err := grid.RunWith(sweep.Runner{Jobs: *jobs, Cache: cache, OnPutError: onPutError})
		if err != nil {
			return err
		}
		log.Debug("sweep done", "dur", time.Since(start).Round(time.Millisecond).String())
		if *jsonOut {
			return set.WriteJSON(stdout)
		}
		return set.WriteCSV(stdout)
	}

	figs, err := bench.Select(*exp, *system, *wl)
	if err != nil {
		return err
	}
	log.Debug("experiment", "exp", *exp, "quick", *quick, "figures", len(figs))
	tables, err := bench.Suite{Q: q, Jobs: *jobs, Cache: cache, OnPutError: onPutError}.Run(figs...)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if *csv {
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprintln(stdout, t.String())
		}
	}
	return nil
}

// writeAxes prints every grid axis the sweep and figure modes accept —
// the -list discovery surface, mirrored by swpfd's GET /meta.
func writeAxes(w io.Writer, q bench.Quality) error {
	fmt.Fprintln(w, "workloads (name: params):")
	for _, wl := range bench.WorkloadSet(q) {
		fmt.Fprintf(w, "  %-12s %s\n", wl.Name+":", wl.Params)
	}
	fmt.Fprintln(w, "systems:")
	for _, cfg := range uarch.All() {
		fmt.Fprintf(w, "  %-12s hwpf default: %s\n", cfg.Name+":", cfg.HWPrefetcherName())
	}
	fmt.Fprintln(w, "variants:")
	for _, v := range sweep.Variants() {
		fmt.Fprintf(w, "  %s\n", v)
	}
	fmt.Fprintln(w, "hardware prefetchers (-hwpf):")
	fmt.Fprintf(w, "  %-12s keep each system's own model\n", sweep.HWPrefetcherDefault+":")
	for _, name := range hwpf.Names() {
		fmt.Fprintf(w, "  %-12s %s\n", name+":", hwpf.Describe(name))
	}
	fmt.Fprintln(w, "core models (-core):")
	fmt.Fprintf(w, "  %-12s keep each system's own timing model\n", sweep.CoreDefault+":")
	for _, name := range sim.CoreModels() {
		fmt.Fprintf(w, "  %-12s %s\n", name+":", sim.DescribeCoreModel(name))
	}
	fmt.Fprintln(w, "execution modes (-exec):")
	fmt.Fprintf(w, "  %-12s interpret every cell\n", string(core.ExecDirect)+":")
	fmt.Fprintf(w, "  %-12s record each workload/variant once, retime everywhere (identical statistics)\n", string(core.ExecReplay)+":")
	fmt.Fprintln(w, "tune strategies (-strategy):")
	for _, st := range tune.Strategies() {
		fmt.Fprintf(w, "  %s\n", st)
	}
	fmt.Fprintf(w, "tune default ladders: cs %v, depths %v, hoists %v\n",
		tune.DefaultCs, tune.DefaultDepths, tune.DefaultHoists)
	return nil
}

// replayImported parses an external text trace (trace.ParseText) and
// retimes it on every selected system x hardware-prefetcher x core
// cell, emitting the cells as sweep records (workload named after the
// file, variant "imported", exec "replay"), like -sweep. The trace
// decodes to one shared image, so the import is paid once regardless
// of the cell count.
func replayImported(path, systems, hwpfAxis, coreAxis string, jsonOut bool, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	t, err := trace.ParseText(f, name)
	if err != nil {
		return err
	}
	im, err := interp.NewImage(t)
	if err != nil {
		return err
	}
	cfgs, err := sweep.ParseSystems(systems)
	if err != nil {
		return err
	}
	hws, err := sweep.ParseHWPrefetchers(hwpfAxis)
	if err != nil {
		return err
	}
	cores, err := sweep.ParseCores(coreAxis)
	if err != nil {
		return err
	}

	grid := sweep.Grid{
		Workloads:     []*wkl.Workload{{Name: name}},
		Systems:       cfgs,
		HWPrefetchers: hws,
		Cores:         cores,
		Variants:      []core.Variant{core.Variant(t.Meta.Variant)},
		Execs:         []core.ExecMode{core.ExecReplay},
	}
	set := &sweep.ResultSet{}
	cx := core.NewContext()
	for _, req := range grid.Expand() {
		res, err := cx.ReplayImage(im, req.System)
		if err != nil {
			return err
		}
		set.Outcomes = append(set.Outcomes, sweep.Outcome{Request: req, Result: res})
	}
	if jsonOut {
		return set.WriteJSON(stdout)
	}
	return set.WriteCSV(stdout)
}
