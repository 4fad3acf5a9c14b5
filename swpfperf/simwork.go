package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// simJobs is the sweep worker count of the simulation workloads.
const simJobs = 2

// simWorkload is a workload swept in-process through sweep.Runner.
type simWorkload struct {
	name   string
	seeded bool // the seed picks the generated kernels
	fig4   bool // the grid is figure 4's, so report the paper comparison
	// pool builds the workloads (inputs and reference checksums); tiny
	// selects test sizes.
	pool func(seed uint64, tiny bool) []*workloads.Workload
	grid func(ws []*workloads.Workload) sweep.Grid
}

// machines are the Table 1 machines the simulation workloads run on:
// the out-of-order and in-order ends of the paper's argument. All four
// machines make one paper-full pass take ~43 s on a 2-core host.
func machines() []*sim.Config { return []*sim.Config{uarch.Haswell(), uarch.A53()} }

var plainAuto = []core.Variant{core.VariantPlain, core.VariantAuto}

// paperFull is figure 4 at the default sizes, executed directly: every
// cell interprets, and the miss path of the hierarchy does most of the
// simulation work.
var paperFull = simWorkload{
	name: "paper-full",
	fig4: true,
	pool: func(_ uint64, tiny bool) []*workloads.Workload {
		if tiny {
			return workloads.Tiny()
		}
		return workloads.All()
	},
	grid: func(ws []*workloads.Workload) sweep.Grid {
		return sweep.Grid{Workloads: ws, Systems: machines(), Variants: plainAuto, Options: core.Options{C: 64}}
	},
}

// timingWide retimes every (kernel, variant) under every hardware
// prefetcher and core model of both machines in replay mode, so trace
// decode, replay and the timing models do nearly all the work.
var timingWide = simWorkload{
	name:   "timing-wide",
	seeded: true,
	pool: func(seed uint64, tiny bool) []*workloads.Workload {
		if tiny {
			return append(workloads.Tiny(), workloads.Synthetic(seed, 2)...)
		}
		return append(workloads.Quick(), workloads.Synthetic(seed, 16)...)
	},
	grid: func(ws []*workloads.Workload) sweep.Grid {
		return sweep.Grid{
			Workloads:     ws,
			Systems:       machines(),
			HWPrefetchers: hwpfModels,
			Cores:         coreModels,
			Variants:      plainAuto,
			Options:       core.Options{C: 64},
			Execs:         []core.ExecMode{core.ExecReplay},
		}
	},
}

// setupPool builds the workload pool several times, timing each build,
// and returns the last pool with the build times. It repeats until at
// least three builds and about a second of building have been done.
func setupPool(sw simWorkload, opts options) ([]*workloads.Workload, []float64) {
	var ws []*workloads.Workload
	var times []float64
	var total float64
	for len(times) < 3 || (total < 1 && len(times) < 25) {
		ws = nil
		runtime.GC()
		start := time.Now()
		ws = sw.pool(opts.seed, opts.tiny)
		d := time.Since(start).Seconds()
		times = append(times, d)
		total += d
	}
	return ws, times
}

// simPass is one untraced execution of a request list.
type simPass struct {
	set  *sweep.ResultSet
	wall float64
	m    *sweep.Metrics
	done []float64 // completion offsets in seconds, in completion order
}

// newSweepMetrics builds sweep instruments on a private registry with
// fine latency buckets, so per-cell quantiles can be read back.
func newSweepMetrics() *sweep.Metrics {
	reg := obs.NewRegistry()
	cells := func(source string) *obs.Counter {
		return reg.Counter("cells_total", "", obs.L("source", source))
	}
	seconds := func(phase string) *obs.Histogram {
		return reg.Histogram("cell_seconds", "", latencyBuckets, obs.L("phase", phase))
	}
	return &sweep.Metrics{
		CellsCache: cells("cache"), CellsDirect: cells("direct"),
		CellsRecorded: cells("recorded"), CellsReplayed: cells("replayed"),
		DirectSeconds: seconds("direct"), RecordSeconds: seconds("record"), ReplaySeconds: seconds("replay"),
	}
}

// runPass executes reqs on sweep.Runner with simJobs workers. With
// track set, completion times are recorded through OnProgress.
func runPass(reqs []sweep.Request, track bool) simPass {
	p := simPass{m: newSweepMetrics()}
	r := sweep.Runner{Jobs: simJobs, Metrics: p.m}
	var mu sync.Mutex
	start := time.Now()
	if track {
		r.OnProgress = func(int, int) {
			d := time.Since(start).Seconds()
			mu.Lock()
			p.done = append(p.done, d)
			mu.Unlock()
		}
	}
	p.set, _ = r.Execute(reqs) // per-cell errors are checked by checkCells
	p.wall = time.Since(start).Seconds()
	return p
}

// references maps each workload to the checksum of its pure-Go
// reference implementation.
func references(ws []*workloads.Workload) map[*workloads.Workload]int64 {
	refs := make(map[*workloads.Workload]int64, len(ws))
	for _, w := range ws {
		refs[w] = w.Plain().Want
	}
	return refs
}

// checkCells counts the cells that failed or whose checksum differs
// from the workload's reference, reporting the first few.
func checkCells(reqs []sweep.Request, results []*core.Result, errs []error, refs map[*workloads.Workload]int64, rep *report, what string) int {
	failed := 0
	for i, req := range reqs {
		var why string
		switch res := results[i]; {
		case errs[i] != nil:
			why = errs[i].Error()
		case res == nil:
			why = "no result"
		case res.Checksum != refs[req.Workload]:
			why = fmt.Sprintf("checksum %d, reference %d", res.Checksum, refs[req.Workload])
		default:
			continue
		}
		failed++
		if failed <= 3 {
			rep.fail("%s cell %d (%s/%s/%s/%s/%s): %s", what, i, req.Workload.Name, req.System.Name,
				req.System.HWPrefetcherName(), req.System.CoreName(), req.Variant, why)
		}
	}
	return failed
}

// outcomeErrs splits a result set's errors out, positionally.
func outcomeErrs(set *sweep.ResultSet) []error {
	errs := make([]error, len(set.Outcomes))
	for i, o := range set.Outcomes {
		errs[i] = o.Err
	}
	return errs
}

// instructions sums the core-issued instructions of results.
func instructions(results []*core.Result) uint64 {
	var n uint64
	for _, r := range results {
		if r != nil {
			n += r.Stats.Instructions
		}
	}
	return n
}

// runSim runs a simulation workload. An untraced run repeats whole
// passes of fixed work for about opts.seconds; a traced run makes one
// untraced pass and then one traced pass of the same cells.
func runSim(sw simWorkload, opts options, rep *report) error {
	if sw.seeded {
		rep.note("workload %s seed %d", sw.name, opts.seed)
	} else {
		rep.note("workload %s seed none (fixed input generators; --seed %d has no effect)", sw.name, opts.seed)
	}
	ws, setups := setupPool(sw, opts)
	rep.set("setup_s", median(setups))
	rep.set("workloads.build_s", median(setups))
	rep.note("setup: %d pool builds, median %.4f s", len(setups), median(setups))
	reqs := sw.grid(ws).Expand()
	refs := references(ws)

	// A pass starts only while at least half of it still fits in
	// opts.seconds, judged by the previous pass.
	var passes []simPass
	var firstDigest string
	start := time.Now()
	for len(passes) == 0 || (!opts.trace && time.Since(start).Seconds() < opts.seconds-passes[len(passes)-1].wall/2) {
		p := runPass(reqs, opts.trace)
		results := p.set.Results()
		failed := checkCells(reqs, results, outcomeErrs(p.set), refs, rep, "untraced")
		rep.count(len(reqs), failed)
		d := digest(reqs, results)
		if firstDigest == "" {
			firstDigest = d
		} else if d != firstDigest {
			rep.fail("pass %d stats_sha256 %s differs from pass 1's %s", len(passes)+1, d, firstDigest)
		}
		passes = append(passes, p)
		runtime.GC()
	}
	rep.note("stats_sha256 %s (%d cells in request order)", firstDigest, len(reqs))

	var walls, mips, rates []float64
	var hs []*obs.Histogram
	for _, p := range passes {
		walls = append(walls, p.wall)
		mips = append(mips, float64(instructions(p.set.Results()))/p.wall/1e6)
		rates = append(rates, float64(len(reqs))/p.wall)
		hs = append(hs, p.m.DirectSeconds, p.m.RecordSeconds, p.m.ReplaySeconds)
	}
	rep.note("passes: %d of %d cells, %d M instructions each; walls %v s",
		len(passes), len(reqs), instructions(passes[0].set.Results())/1e6, walls)
	rep.set("wall_s", median(walls))
	rep.set("sim_mips", median(mips))
	rep.set("cells_per_s", median(rates))
	// A caller submits the grid as one sweep and waits for all of it, so
	// each pass is one job.
	rep.set("job_s_p50", median(walls))
	tailV, pct := tail(walls)
	rep.set("job_s_tail", tailV)
	rep.note("job_s_tail is p%.0f of %d passes (each pass is one sweep job)", pct, len(walls))
	cellTimes(rep, "the untraced passes (sweep.Runner.Metrics)", hs...)
	rep.set("peak_rss_mb", selfPeakRSSMB())

	if sw.fig4 {
		rows, mean := fig4(passes[0].set)
		for _, r := range rows {
			rep.note("fig4 %-8s auto geomean %.3f over %d workloads, paper %.1f, error %.2f %%",
				r.machine, r.reproduced, r.numWorkloads, r.paper, r.absErrPct)
		}
		rep.note("fig4_err_pct %.4f %% (mean over %d machines; simulated, so it repeats exactly)", mean, len(rows))
	}
	hierarchyMetrics(passes[0].set.Results(), rep)

	if !opts.trace {
		return nil
	}
	untraced := passes[0]
	busy := untraced.m.DirectSeconds.Sum() + untraced.m.RecordSeconds.Sum() + untraced.m.ReplaySeconds.Sum()
	rep.set("sweep.busy_frac", busy/(simJobs*untraced.wall))
	if k := len(untraced.done) - simJobs; k >= 0 {
		rep.set("sweep.tail_idle_s", untraced.wall-untraced.done[k])
	}
	tp := tracedPass(reqs, rep)
	failed := checkCells(reqs, tp.results, tp.errs, refs, rep, "traced")
	rep.count(len(reqs), failed)
	td := digest(reqs, tp.results)
	if td != firstDigest {
		rep.fail("traced stats_sha256 %s differs from untraced %s", td, firstDigest)
	}
	rep.note("traced stats_sha256 %s", td)
	rep.note("untraced wall %.3f s, traced wall %.3f s", untraced.wall, tp.wall)
	rep.set("bench.trace_overhead_s", tp.wall-untraced.wall)
	rep.set("bench.trace_overhead_frac", ratio(tp.wall-untraced.wall, untraced.wall))
	tp.layerMetrics(reqs, rep)
	return writeSpans(opts, tp.spans)
}

// cellTimes reports core.cell_s_p50 and core.cell_s_tail from the
// per-cell histograms of sweep.Metrics: each observation is one
// Context.Run, one Context.Record with its interp.NewImage, or one
// Context.ReplayImage, timed by sweep.Runner itself.
func cellTimes(rep *report, from string, hs ...*obs.Histogram) {
	p50, tailV, pct, n := histMedianTail(hs...)
	rep.set("core.cell_s_p50", p50)
	rep.set("core.cell_s_tail", tailV)
	rep.note("core.cell_s: p50 %.6f s, tail p%.1f %.6f s, over %d cells of %s", p50, pct, tailV, n, from)
}

// hierarchyMetrics reports the simulated memory-system counts of a
// result set, summed over its cells.
func hierarchyMetrics(results []*core.Result, rep *report) {
	var instr, loads, l1h, l1m, dram, walks, swpf, hwpf, unused uint64
	var cycles, stall, late float64
	for _, r := range results {
		if r == nil {
			continue
		}
		instr += r.Stats.Instructions
		cycles += r.Cycles
		loads += r.Stats.Loads
		l1h += r.L1Hits
		l1m += r.L1Misses
		dram += r.DRAMAccesses
		walks += r.TLBWalks
		swpf += r.SWPrefetches
		hwpf += r.HWPrefetches
		unused += r.PrefetchedUnusedL1
		stall += r.LoadStallCycles
		late += r.PrefetchLateCycles
	}
	rep.set("sim.ipc", ratio(float64(instr), cycles))
	rep.set("sim.l1_miss_frac", ratio(float64(l1m), float64(l1h+l1m)))
	rep.set("sim.dram_per_kinstr", ratio(1000*float64(dram), float64(instr)))
	rep.set("sim.tlb_walks_per_kinstr", ratio(1000*float64(walks), float64(instr)))
	rep.set("sim.load_stall_cycles_per_load", ratio(stall, float64(loads)))
	rep.set("sim.prefetch_late_cycles_per_load", ratio(late, float64(loads)))
	rep.set("sim.prefetched_unused_frac", ratio(float64(unused), float64(swpf+hwpf)))
}
