package gen

import (
	"crypto/sha256"
	"fmt"
	"sync/atomic"

	"repro/internal/hwpf"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// Failure describes one differential-oracle violation: the kernel's
// parameters, the checking stage that tripped, the grid cell inside
// the stage, and what went wrong.
type Failure struct {
	// Params identifies the failing kernel.
	Params Params
	// Stage is the oracle phase: "verify", "reference", "pass-verify",
	// "interp-diff", "sim-invariant", "record" or "replay-diff".
	Stage string
	// Cell names the failing grid cell within the stage, e.g.
	// "c=8,depth=1,hoist=true" or "Haswell/ooo/imp".
	Cell string
	// Detail is the human-readable mismatch description.
	Detail string
}

// Error implements error.
func (f *Failure) Error() string {
	return fmt.Sprintf("gen: %s[%s]: %s (kernel %s)", f.Stage, f.Cell, f.Detail, f.Params.Canonical())
}

// Oracle checks generated kernels differentially. The zero value is
// not useful; start from DefaultOracle and override fields.
//
// Check runs four phases per kernel:
//
//  1. verify: ir.Verify accepts the generated module;
//  2. interp-diff: the interpreter result and final memory image of
//     the pass-transformed kernel are bit-identical to the plain
//     kernel — and to the pure-Go reference — at every configured
//     look-ahead x stagger-depth x hoist variant, plus the restricted
//     (icc), indirect-only and flat-offset pass modes;
//  3. sim-invariant: the full simulator, across every configured
//     machine (each on its own core model) x hardware-prefetcher
//     model, reproduces the reference checksum, satisfies the
//     statistics invariants (prefetched-unused <= prefetches issued,
//     no hardware prefetches from the "none" model, no TLB drops from
//     same-page models), and is bit-identical when the same grid is
//     re-run on Jobs parallel workers;
//  4. replay-diff: the auto-prefetched kernel is recorded once
//     (internal/trace) and the trace replayed on every sim cell — each
//     replayed record must be bit-identical to the cell's direct run,
//     which pins the record/replay split against generated kernels,
//     not just the curated workloads.
type Oracle struct {
	// Cs are the look-ahead constants of the interp-diff grid.
	Cs []int64
	// Depths are the MaxStaggerDepth values of the interp-diff grid.
	Depths []int
	// Hoists are the §4.6 settings of the interp-diff grid.
	Hoists []bool
	// Systems are the machine configurations of the sim phase.
	Systems []*sim.Config
	// HWPFs are the hardware-prefetcher models of the sim phase.
	HWPFs []string
	// Jobs is the worker count for the parallel sim re-run.
	Jobs int
	// MaxInstrs bounds each run, so a generator or pass bug that
	// produces a runaway loop surfaces as a failure, not a hang.
	MaxInstrs uint64
	// PassTweak, when non-nil, adjusts the pass options of every
	// transformed run — the fault-injection hook (e.g. setting
	// prefetch.Options.TestClampSlack) that lets tests prove the
	// oracle catches an unsafe pass.
	PassTweak func(*prefetch.Options)

	// Counts accumulates the per-phase check tallies across every
	// Check call, so a campaign can report how much work each oracle
	// phase actually did. Check mutates it without locking: campaigns
	// check kernels sequentially (the parallelism lives inside a
	// single kernel's sim phase).
	Counts Counts
}

// Counts tallies individual checks by oracle phase: verifier
// acceptances, interpreter differential runs, direct simulator cells,
// and trace-replay cells.
type Counts struct {
	Verify int
	Interp int
	Sim    int
	Replay int
}

// Total returns the number of individual checks across all phases.
func (c Counts) Total() int { return c.Verify + c.Interp + c.Sim + c.Replay }

// String renders the breakdown, e.g. "verify=12 interp=88 sim=120 replay=120".
func (c Counts) String() string {
	return fmt.Sprintf("verify=%d interp=%d sim=%d replay=%d", c.Verify, c.Interp, c.Sim, c.Replay)
}

// DefaultOracle returns the configuration the test suite and
// cmd/swpffuzz use: two look-aheads, stagger depths 0/1, hoisting
// off/on, one in-order and one out-of-order machine on every core
// model, every hardware model, and an 8-worker parallel re-run.
func DefaultOracle() *Oracle {
	var systems []*sim.Config
	for _, cfg := range []*sim.Config{uarch.A53(), uarch.Haswell()} {
		for _, core := range sim.CoreModels() {
			systems = append(systems, uarch.WithCoreModel(cfg, core))
		}
	}
	return &Oracle{
		Cs:        []int64{8, 64},
		Depths:    []int{0, 1},
		Hoists:    []bool{false, true},
		Systems:   systems,
		HWPFs:     hwpf.Names(),
		Jobs:      8,
		MaxInstrs: 1 << 24,
	}
}

// interpConfig is the machine used for the architectural (interp-diff)
// phase; results are timing-independent, so one small config keeps the
// phase cheap.
func interpConfig() *sim.Config { return uarch.A53() }

func (o *Oracle) fail(k *Kernel, stage, cell, format string, args ...any) *Failure {
	return &Failure{Params: k.P, Stage: stage, Cell: cell, Detail: fmt.Sprintf(format, args...)}
}

// runInterp builds a machine over mod, executes the kernel and returns
// the checksum plus the final memory image.
func (o *Oracle) runInterp(k *Kernel, mod *ir.Module, cfg *sim.Config) (int64, [sha256.Size]byte, error) {
	mach := interp.New(mod, cfg)
	mach.MaxInstrs = o.MaxInstrs
	sum, err := k.Exec(mach)
	if err != nil {
		return 0, [sha256.Size]byte{}, err
	}
	return sum, mach.Mem.Snapshot(), nil
}

// passVariant is one cell of the interp-diff grid.
type passVariant struct {
	name string
	opts prefetch.Options
}

// passVariants enumerates the transformed configurations the oracle
// diffs against the plain run.
func (o *Oracle) passVariants() []passVariant {
	var out []passVariant
	for _, c := range o.Cs {
		for _, d := range o.Depths {
			for _, h := range o.Hoists {
				out = append(out, passVariant{
					name: fmt.Sprintf("c=%d,depth=%d,hoist=%t", c, d, h),
					opts: prefetch.Options{C: c, MaxStaggerDepth: d, Hoist: h},
				})
			}
		}
	}
	out = append(out,
		passVariant{name: "icc", opts: prefetch.Options{C: 64, Mode: prefetch.ModeSimpleStrideIndirect}},
		passVariant{name: "indirect-only", opts: prefetch.Options{C: 64, NoStrideCompanion: true}},
		passVariant{name: "flat-offset", opts: prefetch.Options{C: 64, FlatOffset: true}},
	)
	return out
}

// Check runs every oracle phase on the kernel and returns the first
// violation, or nil.
func (o *Oracle) Check(k *Kernel) *Failure {
	// Phase 1: the generator's output must verify.
	plain := k.Build()
	if err := plain.Verify(); err != nil {
		return o.fail(k, "verify", "plain", "%v", err)
	}
	o.Counts.Verify++

	// Baseline: the untransformed kernel against the pure-Go model.
	cfg := interpConfig()
	plainSum, plainSnap, err := o.runInterp(k, plain, cfg)
	if err != nil {
		return o.fail(k, "reference", "plain", "plain run failed: %v", err)
	}
	o.Counts.Interp++
	if plainSum != k.Want {
		return o.fail(k, "reference", "plain", "plain checksum %d, reference model %d", plainSum, k.Want)
	}

	// Phase 2: interp bit-identity with the pass applied.
	for _, v := range o.passVariants() {
		opts := v.opts
		if o.PassTweak != nil {
			o.PassTweak(&opts)
		}
		mod := k.Build()
		prefetch.Run(mod, opts)
		if err := mod.Verify(); err != nil {
			return o.fail(k, "pass-verify", v.name, "pass produced invalid IR: %v", err)
		}
		o.Counts.Verify++
		sum, snap, err := o.runInterp(k, mod, cfg)
		if err != nil {
			return o.fail(k, "interp-diff", v.name, "transformed run failed: %v", err)
		}
		o.Counts.Interp++
		if sum != plainSum {
			return o.fail(k, "interp-diff", v.name, "checksum %d, plain %d", sum, plainSum)
		}
		if snap != plainSnap {
			return o.fail(k, "interp-diff", v.name, "final memory image differs from plain run")
		}
	}

	// Phase 3: simulator invariants across machines x hardware models,
	// serial, then re-run on Jobs workers — the two passes must be
	// bit-identical (which also pins run-to-run determinism).
	cells := o.simCells()
	serial := make([]simRecord, len(cells))
	for i, c := range cells {
		serial[i] = o.runSim(k, c)
	}
	o.Counts.Sim += len(cells)
	for i, c := range cells {
		if f := o.checkSimInvariants(k, c, serial[i]); f != nil {
			return f
		}
	}
	parallel := make([]simRecord, len(cells))
	var next atomic.Int64
	done := make(chan struct{})
	workers := o.Jobs
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				parallel[i] = o.runSim(k, cells[i])
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	o.Counts.Sim += len(cells)
	for i, c := range cells {
		if serial[i] != parallel[i] {
			return o.fail(k, "sim-invariant", c.name,
				"jobs=1 vs jobs=%d diverge: %+v vs %+v", workers, serial[i], parallel[i])
		}
	}

	// Phase 4: replay equivalence. Record the auto-prefetched kernel
	// once, then retime the trace on every cell — each replayed record
	// must be bit-identical to the cell's direct serial run.
	im, rf := o.recordImage(k)
	if rf != nil {
		return rf
	}
	o.Counts.Interp++ // the recording run
	for i, c := range cells {
		if rec := o.replaySim(im, c); rec != serial[i] {
			return o.fail(k, "replay-diff", c.name,
				"replay diverges from direct run: %+v vs %+v", rec, serial[i])
		}
	}
	o.Counts.Replay += len(cells)
	return nil
}

// recordImage executes the auto-prefetched kernel once with the trace
// recorder attached (the recording configuration is irrelevant —
// traces are machine-independent) and predecodes the trace for
// replay.
func (o *Oracle) recordImage(k *Kernel) (*interp.Image, *Failure) {
	opts := prefetch.Options{C: 64}
	if o.PassTweak != nil {
		o.PassTweak(&opts)
	}
	mod := k.Build()
	prefetch.Run(mod, opts)
	if err := mod.Verify(); err != nil {
		return nil, o.fail(k, "record", "auto", "pass broke module: %v", err)
	}
	mach := interp.New(mod, interpConfig())
	mach.MaxInstrs = o.MaxInstrs
	tw := trace.NewWriter()
	mach.RecordTo(tw)
	sum, err := k.Exec(mach)
	if err != nil {
		return nil, o.fail(k, "record", "auto", "recording run failed: %v", err)
	}
	st := mach.Stats()
	oc := make([]uint64, len(st.OpCounts))
	copy(oc, st.OpCounts[:])
	t := tw.Close(
		trace.Meta{Workload: k.Name, Variant: "auto"},
		trace.Summary{
			Executed: st.Executed, OpCounts: oc,
			Loads: st.Loads, Stores: st.Stores, Prefetches: st.Prefetches,
			Checksum: sum,
		},
	)
	im, err := interp.NewImage(t)
	if err != nil {
		return nil, o.fail(k, "record", "auto", "trace does not decode: %v", err)
	}
	return im, nil
}

// replaySim retimes the recorded image on the cell's machine and core
// model and snapshots the same statistics runSim does, so the two
// records are directly comparable.
func (o *Oracle) replaySim(im *interp.Image, c simCell) simRecord {
	core := sim.NewCoreModel(c.cfg)
	st, err := im.Replay(core)
	if err != nil {
		return simRecord{Err: err.Error()}
	}
	return snapshot(im.Trace().Summary.Checksum, st, core.Hierarchy())
}

// simCell is one machine x hardware-model configuration.
type simCell struct {
	name  string
	cfg   *sim.Config
	model string
}

func (o *Oracle) simCells() []simCell {
	var out []simCell
	for _, cfg := range o.Systems {
		for _, model := range o.HWPFs {
			out = append(out, simCell{
				name:  cfg.Name + "/" + cfg.CoreName() + "/" + model,
				cfg:   uarch.WithHWPrefetcher(cfg, model),
				model: model,
			})
		}
	}
	return out
}

// simRecord is the comparable outcome of one simulated cell. It must
// stay a plain comparable struct: the jobs-determinism check compares
// records with ==.
type simRecord struct {
	Sum          int64
	Err          string
	Cycles       float64
	Instructions uint64
	L1Hits       uint64
	L1Misses     uint64
	SWPrefetches uint64
	HWPrefetches uint64
	HWDropped    uint64
	UnusedL1     uint64
	TLBWalks     uint64
	OpPrefetches uint64
}

// runSim executes the auto-prefetched kernel (the paper's default
// options) on the cell's machine and snapshots every statistic the
// invariants inspect.
func (o *Oracle) runSim(k *Kernel, c simCell) simRecord {
	opts := prefetch.Options{C: 64}
	if o.PassTweak != nil {
		o.PassTweak(&opts)
	}
	mod := k.Build()
	prefetch.Run(mod, opts)
	if err := mod.Verify(); err != nil {
		return simRecord{Err: fmt.Sprintf("pass broke module: %v", err)}
	}
	mach := interp.New(mod, c.cfg)
	mach.MaxInstrs = o.MaxInstrs
	sum, err := k.Exec(mach)
	if err != nil {
		return simRecord{Err: err.Error()}
	}
	return snapshot(sum, mach.Stats(), mach.Core.Hierarchy())
}

// snapshot is the record of a finished run, direct or replayed.
func snapshot(sum int64, st interp.Stats, hier *sim.Hierarchy) simRecord {
	l1 := hier.Caches()[0]
	return simRecord{
		Sum:          sum,
		Cycles:       st.Cycles,
		Instructions: st.Instructions,
		L1Hits:       l1.Hits,
		L1Misses:     l1.Misses,
		SWPrefetches: hier.SWPrefetches,
		HWPrefetches: hier.HWPrefetches,
		HWDropped:    hier.HWPrefetchDropped,
		UnusedL1:     l1.PrefetchedUnused,
		TLBWalks:     hier.TLBStats().Walks,
		OpPrefetches: st.Prefetches,
	}
}

// samePageModels are the hardware designs that never cross a 4KiB
// boundary, so the drop-on-TLB-miss rule must never fire for them.
// GHB and IMP are deliberately absent: both are page-crossing designs
// (GHB correlates per line across pages; IMP's indirect targets are
// arbitrary data-dependent addresses), and drops are their documented
// counterweight (docs/hwpf.md).
var samePageModels = map[string]bool{
	hwpf.NameNone:     true,
	hwpf.NameStride:   true,
	hwpf.NameNextLine: true,
}

func (o *Oracle) checkSimInvariants(k *Kernel, c simCell, r simRecord) *Failure {
	if r.Err != "" {
		return o.fail(k, "sim-invariant", c.name, "run failed: %s", r.Err)
	}
	if r.Sum != k.Want {
		return o.fail(k, "sim-invariant", c.name, "checksum %d, reference %d", r.Sum, k.Want)
	}
	if r.Cycles <= 0 || r.Instructions == 0 {
		return o.fail(k, "sim-invariant", c.name, "degenerate timing: %+v", r)
	}
	if c.model == hwpf.NameNone && r.HWPrefetches != 0 {
		return o.fail(k, "sim-invariant", c.name, "%d hardware prefetches from the none model", r.HWPrefetches)
	}
	if samePageModels[c.model] && r.HWDropped != 0 {
		return o.fail(k, "sim-invariant", c.name,
			"%d TLB-dropped prefetches from same-page model %s", r.HWDropped, c.model)
	}
	if r.SWPrefetches != r.OpPrefetches {
		return o.fail(k, "sim-invariant", c.name,
			"hierarchy saw %d software prefetches, interpreter executed %d", r.SWPrefetches, r.OpPrefetches)
	}
	if r.UnusedL1 > r.SWPrefetches+r.HWPrefetches {
		return o.fail(k, "sim-invariant", c.name,
			"%d unused prefetched lines exceed %d prefetches issued",
			r.UnusedL1, r.SWPrefetches+r.HWPrefetches)
	}
	return nil
}
