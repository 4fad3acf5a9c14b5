// Package core is the top-level pipeline tying the reproduction
// together: it takes a workload (or any IR module), optionally applies
// the automatic software-prefetch pass of Ainsworth & Jones (CGO 2017),
// executes the result on a simulated microarchitecture, and reports
// cycles plus memory-system statistics.
//
// This is the API the examples and the benchmark harness consume:
//
//	w := workloads.ISDefault()
//	base, _ := core.Run(w, uarch.Haswell(), core.VariantPlain, core.Options{})
//	auto, _ := core.Run(w, uarch.Haswell(), core.VariantAuto, core.Options{})
//	fmt.Printf("speedup: %.2fx\n", core.Speedup(base, auto))
package core

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Variant selects how prefetches get into the kernel before execution.
type Variant string

// Variants.
const (
	// VariantPlain runs the kernel untouched.
	VariantPlain Variant = "plain"
	// VariantAuto applies the paper's compiler pass (§4).
	VariantAuto Variant = "auto"
	// VariantManual uses the workload's best hand-inserted prefetches.
	VariantManual Variant = "manual"
	// VariantICC applies the restricted stride-indirect-only pass that
	// models the Intel compiler's prefetcher (figure 4d).
	VariantICC Variant = "icc"
	// VariantIndirectOnly applies the pass without stride companions
	// (figure 5's "Indirect Only").
	VariantIndirectOnly Variant = "indirect-only"
)

// Options tunes the run.
type Options struct {
	// C is the look-ahead constant (default 64, the paper's setting).
	C int64
	// Depth limits staggered prefetch levels for VariantManual and the
	// pass's MaxStaggerDepth (figure 7). 0 = unlimited.
	Depth int
	// FlatOffset disables eq. (1) scheduling (ablation).
	FlatOffset bool
	// Hoist enables §4.6 loop hoisting in the automatic pass.
	Hoist bool
	// MaxInstrs bounds simulated dynamic instructions (0 = default).
	MaxInstrs uint64
}

func (o Options) c() int64 {
	if o.C == 0 {
		return 64
	}
	return o.C
}

// Result is the outcome of one simulated run.
type Result struct {
	Workload string
	System   string
	Variant  Variant
	Checksum int64

	Cycles float64
	Stats  interp.Stats

	// Pass holds the prefetch pass report for auto/icc/indirect-only
	// variants; nil otherwise.
	Pass *prefetch.Result

	// Memory-system statistics snapshot.
	L1Hits, L1Misses   uint64
	DRAMAccesses       uint64
	SWPrefetches       uint64
	HWPrefetches       uint64
	HWPrefetchDropped  uint64 // hardware prefetches dropped on a TLB miss
	TLBWalks           uint64
	LoadStallCycles    float64
	PrefetchLateCycles float64
	PrefetchedUnusedL1 uint64
}

// ResultData is the serializable snapshot of a Result: every statistic,
// without the cell labels, which the request a result answers supplies
// again, and without the Pass report, which holds pointers into live IR
// and which no result-set consumer reads. Result-store log lines and
// fleet completion reports carry it; its field names and order are
// their JSON schema.
type ResultData struct {
	Checksum int64
	Cycles   float64
	Stats    interp.Stats

	L1Hits, L1Misses   uint64
	DRAMAccesses       uint64
	SWPrefetches       uint64
	HWPrefetches       uint64
	HWPrefetchDropped  uint64
	TLBWalks           uint64
	LoadStallCycles    float64
	PrefetchLateCycles float64
	PrefetchedUnusedL1 uint64
}

// Data snapshots the result's statistics.
func (r *Result) Data() ResultData {
	return ResultData{
		Checksum:           r.Checksum,
		Cycles:             r.Cycles,
		Stats:              r.Stats,
		L1Hits:             r.L1Hits,
		L1Misses:           r.L1Misses,
		DRAMAccesses:       r.DRAMAccesses,
		SWPrefetches:       r.SWPrefetches,
		HWPrefetches:       r.HWPrefetches,
		HWPrefetchDropped:  r.HWPrefetchDropped,
		TLBWalks:           r.TLBWalks,
		LoadStallCycles:    r.LoadStallCycles,
		PrefetchLateCycles: r.PrefetchLateCycles,
		PrefetchedUnusedL1: r.PrefetchedUnusedL1,
	}
}

// Result rebuilds a Result from the snapshot under the given labels;
// Pass stays nil.
func (d ResultData) Result(workload, system string, v Variant) *Result {
	return &Result{
		Workload:           workload,
		System:             system,
		Variant:            v,
		Checksum:           d.Checksum,
		Cycles:             d.Cycles,
		Stats:              d.Stats,
		L1Hits:             d.L1Hits,
		L1Misses:           d.L1Misses,
		DRAMAccesses:       d.DRAMAccesses,
		SWPrefetches:       d.SWPrefetches,
		HWPrefetches:       d.HWPrefetches,
		HWPrefetchDropped:  d.HWPrefetchDropped,
		TLBWalks:           d.TLBWalks,
		LoadStallCycles:    d.LoadStallCycles,
		PrefetchLateCycles: d.PrefetchLateCycles,
		PrefetchedUnusedL1: d.PrefetchedUnusedL1,
	}
}

// Speedup returns base cycles over x cycles: >1 means x is faster.
func Speedup(base, x *Result) float64 {
	if x.Cycles == 0 {
		return 0
	}
	return base.Cycles / x.Cycles
}

// passOptions maps a variant to pass options; ok=false means no pass.
func passOptions(v Variant, o Options) (prefetch.Options, bool) {
	base := prefetch.Options{
		C:               o.c(),
		MaxStaggerDepth: o.Depth,
		Hoist:           o.Hoist,
		FlatOffset:      o.FlatOffset,
	}
	switch v {
	case VariantAuto:
		return base, true
	case VariantICC:
		base.Mode = prefetch.ModeSimpleStrideIndirect
		return base, true
	case VariantIndirectOnly:
		base.NoStrideCompanion = true
		return base, true
	}
	return prefetch.Options{}, false
}

// Context is a reusable execution context for repeated Runs. It keeps
// one simulator core per machine configuration and resets it in place
// between runs — the sim package's Reset paths preserve their table
// storage, so a worker goroutine that executes many experiment-grid
// cells recycles its cache/TLB/MSHR/stride bookkeeping instead of
// reallocating it per run (see internal/sweep). It also memoizes each
// kernel it builds, per (workload, variant, options): the module, the
// pass report and the verification outcome, so a repeated cell runs
// the pass and the verifier once.
//
// Results are bit-identical to Run with a fresh simulator: Reset
// restores a cold core, interpretation never mutates a module, and
// regression tests enforce the equivalence. A Context keeps everything
// it builds until Trim. It is not safe for concurrent use; give each
// goroutine its own.
type Context struct {
	cores   map[*sim.Config]*entry[sim.CoreModel]
	kernels map[kernelKey]*entry[kernel]
	clock   uint64 // the last use stamp handed out
}

// entry is one retained simulator or kernel with its last use.
type entry[T any] struct {
	v    T
	used uint64
}

// kernelKey identifies a built kernel.
type kernelKey struct {
	w *workloads.Workload
	v Variant
	o Options
}

// kernel is one built variant of a workload, as instance returns it.
type kernel struct {
	inst *workloads.Instance
	pass *prefetch.Result
	err  error
}

// What a context keeps across Trim: the most recently used simulators
// and kernels. A simulator of the largest preset (Haswell) is ~0.3 MB
// and a kernel 7–12 KB, so a trimmed context holds about 2 MB at most
// however many configurations and workloads have passed through it.
const (
	keepSimulators = 4
	keepKernels    = 64
)

// NewContext returns an empty context; cores and kernels are built
// lazily on first use.
func NewContext() *Context {
	return &Context{
		cores:   make(map[*sim.Config]*entry[sim.CoreModel]),
		kernels: make(map[kernelKey]*entry[kernel]),
	}
}

// Trim drops all but the keepSimulators most recently used simulators
// and the keepKernels most recently used kernels. A long-lived owner
// (sweep.Runner.Serve) calls it between batches of work, never within
// one, so memory stays bounded however many configurations pass
// through while no batch builds a simulator twice on one context.
func (cx *Context) Trim() {
	trim(cx.cores, keepSimulators)
	trim(cx.kernels, keepKernels)
}

// trim keeps the keep most recently used entries of m.
func trim[K comparable, T any](m map[K]*entry[T], keep int) {
	if len(m) <= keep {
		return
	}
	used := make([]uint64, 0, len(m))
	for _, e := range m {
		used = append(used, e.used)
	}
	slices.Sort(used)
	cut := used[len(used)-keep] // stamps are distinct
	maps.DeleteFunc(m, func(_ K, e *entry[T]) bool { return e.used < cut })
}

// touch stamps e as the context's most recent use.
func touch[T any](cx *Context, e *entry[T]) T {
	cx.clock++
	e.used = cx.clock
	return e.v
}

// core returns the context's core for cfg, building it on first use;
// the core timing model is whatever cfg.Core selects (empty = the
// legacy interval model).
func (cx *Context) core(cfg *sim.Config) sim.CoreModel {
	e := cx.cores[cfg]
	if e == nil {
		e = &entry[sim.CoreModel]{v: sim.NewCoreModel(cfg)}
		cx.cores[cfg] = e
	}
	return touch(cx, e)
}

// kernel returns the requested variant of the workload, building it on
// first use (see instance).
func (cx *Context) kernel(w *workloads.Workload, v Variant, o Options) (*workloads.Instance, *prefetch.Result, error) {
	k := kernelKey{w, v, o}
	e := cx.kernels[k]
	if e == nil {
		inst, pass, err := instance(w, v, o)
		e = &entry[kernel]{v: kernel{inst, pass, err}}
		cx.kernels[k] = e
	}
	kn := touch(cx, e)
	return kn.inst, kn.pass, kn.err
}

// release detaches cfg's core from the memory of the run that just
// finished. A prefetcher that reads simulated memory (hwpf.IMP) holds
// it, and a cached core must not keep a finished run's address space
// alive: a long-lived context caches a core per configuration.
func (cx *Context) release(cfg *sim.Config) { cx.cores[cfg].v.Hierarchy().SetPeek(nil) }

// Run builds the requested variant of the workload and executes it on
// the given machine configuration, using a fresh simulator. For tight
// loops over many runs, prefer Context.Run, which recycles simulator
// storage.
func Run(w *workloads.Workload, cfg *sim.Config, v Variant, o Options) (*Result, error) {
	return NewContext().Run(w, cfg, v, o)
}

// instance builds the requested variant of the workload: the kernel
// module (transformed for the pass variants) plus its execution driver.
// Shared by the direct path (Run) and the recording path (Record).
func instance(w *workloads.Workload, v Variant, o Options) (*workloads.Instance, *prefetch.Result, error) {
	var inst *workloads.Instance
	var passRes *prefetch.Result
	switch v {
	case VariantPlain:
		inst = w.Plain()
	case VariantManual:
		inst = w.Manual(o.c(), o.Depth)
	case VariantAuto, VariantICC, VariantIndirectOnly:
		inst = w.Plain()
		opts, _ := passOptions(v, o)
		results := prefetch.Run(inst.Mod, opts)
		for _, r := range results {
			if passRes == nil || len(r.Emitted) > len(passRes.Emitted) {
				passRes = r
			}
		}
		if err := inst.Mod.Verify(); err != nil {
			return nil, nil, fmt.Errorf("core: pass broke %s: %w", w.Name, err)
		}
	default:
		return nil, nil, fmt.Errorf("core: unknown variant %q", v)
	}
	return inst, passRes, nil
}

// assemble snapshots the post-run simulator state into a Result — the
// one place the statistics a Result carries are defined, so the direct
// and replay paths cannot drift apart.
func assemble(workload, system string, v Variant, sum int64, st interp.Stats, hier *sim.Hierarchy, passRes *prefetch.Result) *Result {
	l1 := hier.Caches()[0]
	return &Result{
		Workload: workload,
		System:   system,
		Variant:  v,
		Checksum: sum,
		Cycles:   st.Cycles,
		Stats:    st,
		Pass:     passRes,

		L1Hits:             l1.Hits,
		L1Misses:           l1.Misses,
		DRAMAccesses:       hier.DRAMAccesses,
		SWPrefetches:       hier.SWPrefetches,
		HWPrefetches:       hier.HWPrefetches,
		HWPrefetchDropped:  hier.HWPrefetchDropped,
		TLBWalks:           hier.TLBStats().Walks,
		LoadStallCycles:    hier.LoadStallCycles,
		PrefetchLateCycles: hier.PrefetchLateCycles,
		PrefetchedUnusedL1: l1.PrefetchedUnused,
	}
}

// Run is the context-reusing counterpart of the package-level Run: the
// simulator core for cfg is reset in place rather than rebuilt, and a
// kernel this context has built before is not built again.
func (cx *Context) Run(w *workloads.Workload, cfg *sim.Config, v Variant, o Options) (*Result, error) {
	return cx.run(w, cfg, v, o, nil)
}

// run is the one body of Run and Record: it executes the requested
// variant of the workload on cfg, mirroring the run into tw when tw is
// not nil.
func (cx *Context) run(w *workloads.Workload, cfg *sim.Config, v Variant, o Options, tw *trace.Writer) (*Result, error) {
	inst, passRes, err := cx.kernel(w, v, o)
	if err != nil {
		return nil, err
	}

	mach := interp.NewOnCore(inst.Mod, cx.core(cfg))
	mach.MaxInstrs = o.MaxInstrs
	mach.RecordTo(tw)
	sum, err := inst.Exec(mach)
	cx.release(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %s/%s on %s: %w", w.Name, v, cfg.Name, err)
	}
	if sum != inst.Want {
		return nil, fmt.Errorf("core: %s/%s on %s: checksum %d, want %d",
			w.Name, v, cfg.Name, sum, inst.Want)
	}
	return assemble(w.Name, cfg.Name, v, sum, mach.Stats(), mach.Core.Hierarchy(), passRes), nil
}

// Transform applies the automatic pass to an arbitrary IR module — the
// entry point for user-supplied kernels (see examples/customkernel and
// cmd/swpfc).
func Transform(mod *ir.Module, o Options) (map[string]*prefetch.Result, error) {
	opts, _ := passOptions(VariantAuto, o)
	res := prefetch.Run(mod, opts)
	if err := mod.Verify(); err != nil {
		return nil, fmt.Errorf("core: pass produced invalid IR: %w", err)
	}
	return res, nil
}
