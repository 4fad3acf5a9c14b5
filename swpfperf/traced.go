package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function. Times are nanoseconds since the traced pass began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Unit   string `json:"unit"` // the cell ("c17"), replay group ("g3") or job the call served
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a pass's spans in memory until the run ends.
type spanLog struct {
	start time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{start: time.Now()} }

// begin opens a span; end closes it and returns its duration. On a nil
// log both do nothing, so untraced callers share the code.
func (l *spanLog) begin(name, unit string, parent int64) *span {
	if l == nil {
		return &span{}
	}
	return &span{ID: l.next.Add(1), Parent: parent, Name: name, Unit: unit, Start: time.Since(l.start).Nanoseconds()}
}

func (l *spanLog) end(s *span) time.Duration {
	if l == nil {
		return 0
	}
	s.End = time.Since(l.start).Nanoseconds()
	l.mu.Lock()
	l.spans = append(l.spans, *s)
	l.mu.Unlock()
	return time.Duration(s.End - s.Start)
}

// writeSpans writes a traced run's spans as JSON lines.
func writeSpans(opts options, spans []span) error {
	if err := os.MkdirAll(opts.spans, 0o755); err != nil {
		return err
	}
	path := filepath.Join(opts.spans, fmt.Sprintf("%s-seed%d.jsonl", opts.workload, opts.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Core call kinds, indexing coreAcc.calls in callKinds order.
const (
	kindOp = iota
	kindLoad
	kindStore
	kindPrefetch
	kindBranch
)

// coreAcc is one worker's account of the calls into one core model.
type coreAcc struct {
	calls [5]uint64
	estNs float64 // estimated time inside the calls, from the samples
}

// tracedCore decorates a sim.CoreModel: it counts every call and times
// a random one in about samplePeriod, scaling each sample up to the
// calls it stands for. Arguments and results pass through unchanged,
// so the simulation is unperturbed.
type tracedCore struct {
	sim.CoreModel
	acc  *coreAcc
	left uint32 // calls until the next timed one
	rng  uint64
	tick float64 // calibrated cost of one timer read, in ns
}

// samplePeriod is the mean number of calls per timed call.
const samplePeriod = 32

func (c *tracedCore) sample() bool {
	if c.left--; c.left > 0 {
		return false
	}
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	c.left = uint32(c.rng%(2*samplePeriod-1)) + 1 // uniform in [1, 2*samplePeriod-1]
	return true
}

func (c *tracedCore) add(start time.Time) {
	c.acc.estNs += (float64(time.Since(start).Nanoseconds()) - c.tick) * samplePeriod
}

func (c *tracedCore) Op(ready float64, lat int64) float64 {
	c.acc.calls[kindOp]++
	if !c.sample() {
		return c.CoreModel.Op(ready, lat)
	}
	t := time.Now()
	v := c.CoreModel.Op(ready, lat)
	c.add(t)
	return v
}

func (c *tracedCore) Load(pc int, addr int64, ready float64) float64 {
	c.acc.calls[kindLoad]++
	if !c.sample() {
		return c.CoreModel.Load(pc, addr, ready)
	}
	t := time.Now()
	v := c.CoreModel.Load(pc, addr, ready)
	c.add(t)
	return v
}

func (c *tracedCore) Store(pc int, addr int64, ready float64) float64 {
	c.acc.calls[kindStore]++
	if !c.sample() {
		return c.CoreModel.Store(pc, addr, ready)
	}
	t := time.Now()
	v := c.CoreModel.Store(pc, addr, ready)
	c.add(t)
	return v
}

func (c *tracedCore) Prefetch(pc int, addr int64, ready float64, valid bool) float64 {
	c.acc.calls[kindPrefetch]++
	if !c.sample() {
		return c.CoreModel.Prefetch(pc, addr, ready, valid)
	}
	t := time.Now()
	v := c.CoreModel.Prefetch(pc, addr, ready, valid)
	c.add(t)
	return v
}

func (c *tracedCore) Branch(ready float64, conditional bool) float64 {
	c.acc.calls[kindBranch]++
	if !c.sample() {
		return c.CoreModel.Branch(ready, conditional)
	}
	t := time.Now()
	v := c.CoreModel.Branch(ready, conditional)
	c.add(t)
	return v
}

// Finish runs once per cell, so it is always timed.
func (c *tracedCore) Finish() float64 {
	t := time.Now()
	v := c.CoreModel.Finish()
	c.acc.estNs += float64(time.Since(t).Nanoseconds()) - c.tick
	return v
}

// timerTick measures the median cost of one time.Now/time.Since pair.
func timerTick() float64 {
	const n = 4096
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t).Nanoseconds())
	}
	return median(xs)
}

// layerAcc is the per-cell layer accounting of a traced pass, shared
// by its workers.
type layerAcc struct {
	mu                      sync.Mutex
	passNs, passes          float64
	emitted                 map[string][2]int // per kernel and variant: emitted, rejected
	interpNs, interpCoreNs  float64
	executed                uint64
	recordNs                float64
	traceBytes, recExecuted uint64
	replayNs, replayCoreNs  float64
	replaySeconds           map[int]float64 // request index → replay cell time
}

func newLayerAcc() *layerAcc {
	return &layerAcc{emitted: make(map[string][2]int), replaySeconds: make(map[int]float64)}
}

// add applies f to the accounts under their lock.
func (a *layerAcc) add(f func(a *layerAcc)) {
	a.mu.Lock()
	f(a)
	a.mu.Unlock()
}

// tworker is one worker of the traced pass: its own decorated simulator
// cores and core-call accounts, so nothing is shared between goroutines
// inside a cell.
type tworker struct {
	log   *spanLog
	lay   *layerAcc
	cores map[*sim.Config]*tracedCore
	accs  map[string]*coreAcc // by core model
	tick  float64
	seed  uint64
}

func newWorker(log *spanLog, lay *layerAcc, tick float64, seed uint64) *tworker {
	return &tworker{
		log: log, lay: lay, tick: tick, seed: seed,
		cores: make(map[*sim.Config]*tracedCore),
		accs:  make(map[string]*coreAcc),
	}
}

// core returns the worker's decorated core for cfg, reset in place
// between cells like core.Context's.
func (w *tworker) core(cfg *sim.Config) *tracedCore {
	if c, ok := w.cores[cfg]; ok {
		return c
	}
	model := cfg.CoreName()
	acc := w.accs[model]
	if acc == nil {
		acc = &coreAcc{}
		w.accs[model] = acc
	}
	rng := w.seed + uint64(len(w.cores)+1)*0x9e3779b97f4a7c15
	c := &tracedCore{CoreModel: sim.NewCoreModel(cfg), acc: acc, left: 1, rng: rng | 1, tick: w.tick}
	w.cores[cfg] = c
	return c
}

// instance builds the requested variant of a workload the way
// core.Context does, timing the prefetch pass and IR verification.
func (w *tworker) instance(req sweep.Request, unit string, parent int64) (*workloads.Instance, error) {
	c := req.Options.C
	if c == 0 {
		c = 64
	}
	opts := prefetch.Options{C: c, MaxStaggerDepth: req.Options.Depth, Hoist: req.Options.Hoist, FlatOffset: req.Options.FlatOffset}
	switch req.Variant {
	case core.VariantPlain, core.VariantAuto:
	case core.VariantICC:
		opts.Mode = prefetch.ModeSimpleStrideIndirect
	case core.VariantIndirectOnly:
		opts.NoStrideCompanion = true
	case core.VariantManual:
		s := w.log.begin("workloads.Workload.Manual", unit, parent)
		inst := req.Workload.Manual(c, req.Options.Depth)
		w.log.end(s)
		return inst, nil
	default:
		return nil, fmt.Errorf("core: unknown variant %q", req.Variant)
	}
	s := w.log.begin("workloads.Workload.Plain", unit, parent)
	inst := req.Workload.Plain()
	w.log.end(s)
	if req.Variant == core.VariantPlain {
		return inst, nil
	}
	s = w.log.begin("prefetch.Run", unit, parent)
	results := prefetch.Run(inst.Mod, opts)
	d := w.log.end(s)
	s = w.log.begin("ir.Module.Verify", unit, parent)
	err := inst.Mod.Verify()
	d += w.log.end(s)
	var em [2]int
	for _, r := range results {
		em[0] += len(r.Emitted)
		em[1] += len(r.Rejections)
	}
	w.lay.add(func(a *layerAcc) {
		a.passNs += float64(d.Nanoseconds())
		a.passes++
		a.emitted[req.Workload.Name+"|"+req.Workload.Params+"|"+string(req.Variant)] = em
	})
	if err != nil {
		return nil, fmt.Errorf("core: pass broke %s: %w", req.Workload.Name, err)
	}
	return inst, nil
}

// assemble mirrors core's Result assembly from the machine's
// statistics and the hierarchy's counters.
func assemble(req sweep.Request, sum int64, st interp.Stats, hier *sim.Hierarchy) *core.Result {
	l1 := hier.Caches()[0]
	return &core.Result{
		Workload: req.Workload.Name, System: req.System.Name, Variant: req.Variant,
		Checksum: sum, Cycles: st.Cycles, Stats: st,
		L1Hits: l1.Hits, L1Misses: l1.Misses,
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

// interpret runs a cell on the interpreter, optionally recording its
// trace, and accounts the run to interp (and to trace when recording).
func (w *tworker) interpret(req sweep.Request, unit string, record bool) (*core.Result, *trace.Trace, time.Duration, error) {
	name := "core.cell.direct"
	if record {
		name = "core.cell.record"
	}
	cell := w.log.begin(name, unit, 0)
	inst, err := w.instance(req, unit, cell.ID)
	if err != nil {
		w.log.end(cell)
		return nil, nil, 0, err
	}
	c := w.core(req.System)
	before := c.acc.estNs
	s := w.log.begin("interp.Machine.Run", unit, cell.ID)
	mach := interp.NewOnCore(inst.Mod, c)
	mach.MaxInstrs = req.Options.MaxInstrs
	var tw *trace.Writer
	if record {
		tw = trace.NewWriter()
		mach.RecordTo(tw)
	}
	sum, err := inst.Exec(mach)
	st := mach.Stats()
	var t *trace.Trace
	if record && err == nil {
		oc := make([]uint64, len(st.OpCounts))
		copy(oc, st.OpCounts[:])
		opts, _ := json.Marshal(req.Options)
		t = tw.Close(
			trace.Meta{Workload: req.Workload.Name, Params: req.Workload.Params, Variant: string(req.Variant), Options: string(opts)},
			trace.Summary{Executed: st.Executed, OpCounts: oc, Loads: st.Loads, Stores: st.Stores, Prefetches: st.Prefetches, Checksum: sum},
		)
	}
	d := float64(w.log.end(s).Nanoseconds())
	total := w.log.end(cell)
	w.lay.add(func(a *layerAcc) {
		a.interpNs += d
		a.interpCoreNs += c.acc.estNs - before
		a.executed += st.Executed
		if t != nil {
			a.recordNs += d
			a.traceBytes += uint64(t.EncodedEventBytes())
			a.recExecuted += st.Executed
		}
	})
	if err != nil {
		return nil, nil, total, fmt.Errorf("core: %s/%s on %s: %w", req.Workload.Name, req.Variant, req.System.Name, err)
	}
	if sum != inst.Want {
		return nil, nil, total, fmt.Errorf("core: %s/%s on %s: checksum %d, want %d", req.Workload.Name, req.Variant, req.System.Name, sum, inst.Want)
	}
	return assemble(req, sum, st, c.Hierarchy()), t, total, nil
}

// replay retimes cell i of reqs from its group's image.
func (w *tworker) replay(im *interp.Image, reqs []sweep.Request, i int, unit string) (*core.Result, time.Duration, error) {
	req := reqs[i]
	c := w.core(req.System)
	before := c.acc.estNs
	s := w.log.begin("interp.Image.Replay", unit, 0)
	st, err := im.Replay(c)
	d := w.log.end(s)
	w.lay.add(func(a *layerAcc) {
		a.replayNs += float64(d.Nanoseconds())
		a.replayCoreNs += c.acc.estNs - before
		a.replaySeconds[i] = d.Seconds()
	})
	if err != nil {
		return nil, d, err
	}
	return assemble(req, im.Trace().Summary.Checksum, st, c.Hierarchy()), d, nil
}

// tgroup is one replay group of the traced pass: the request indices
// sharing a recording, in request order.
type tgroup struct {
	idxs     []int
	image    *interp.Image
	err      error
	recordS  float64 // recording run, wall
	decodeS  float64 // interp.NewImage, wall
	directS  float64 // one direct run of idxs[0]'s cell
	replay0S float64 // one replay of idxs[0]'s cell
	probeErr [2]error
}

// tracedResult is the outcome of a traced pass.
type tracedResult struct {
	results []*core.Result
	errs    []error
	wall    float64
	spans   []span
	lay     *layerAcc
	workers []*tworker
	groups  []*tgroup
	decodeS float64 // Σ interp.NewImage wall of the timed phases
	imageB  float64 // Σ bytes allocated by interp.NewImage, decoded alone
}

// pool runs n items on the workers, one goroutine each.
func pool(workers []*tworker, n int, f func(w *tworker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(w, i)
			}
		}()
	}
	wg.Wait()
}

// allocBytes reads the process's cumulative heap allocation.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// tracedPass executes reqs through the public layer APIs with a span
// around every call into a layer and a decorated core model, in the
// phases sweep.Runner uses: direct cells; then, for replay cells, one
// recording and its decode per group; then a replay of every other
// cell. After the timed phases, each group's trace is decoded once
// more with nothing else running, so the heap growth is the image's
// own, and each group runs its first cell once directly and once by
// replay, for the break-even point.
func tracedPass(reqs []sweep.Request, rep *report) *tracedResult {
	tr := &tracedResult{results: make([]*core.Result, len(reqs)), errs: make([]error, len(reqs)), lay: newLayerAcc()}
	log := newSpanLog()
	tick := timerTick()
	for i := 0; i < simJobs; i++ {
		tr.workers = append(tr.workers, newWorker(log, tr.lay, tick, uint64(i)))
	}
	var direct []int
	byKey := make(map[string]*tgroup)
	for i, req := range reqs {
		if req.ExecMode() != core.ExecReplay {
			direct = append(direct, i)
			continue
		}
		opts, _ := json.Marshal(req.Options)
		k := req.Workload.Name + "|" + req.Workload.Params + "|" + string(req.Variant) + "|" + string(opts)
		g := byKey[k]
		if g == nil {
			g = &tgroup{}
			byKey[k] = g
			tr.groups = append(tr.groups, g)
		}
		g.idxs = append(g.idxs, i)
	}

	start := time.Now()
	pool(tr.workers, len(direct), func(w *tworker, n int) {
		i := direct[n]
		tr.results[i], _, _, tr.errs[i] = w.interpret(reqs[i], fmt.Sprintf("c%d", i), false)
	})
	pool(tr.workers, len(tr.groups), func(w *tworker, n int) {
		g := tr.groups[n]
		i := g.idxs[0]
		res, t, d, err := w.interpret(reqs[i], fmt.Sprintf("c%d", i), true)
		g.recordS = d.Seconds()
		if err == nil {
			s := log.begin("interp.NewImage", fmt.Sprintf("g%d", n), 0)
			g.image, err = interp.NewImage(t)
			g.decodeS = log.end(s).Seconds()
		}
		if g.err = err; err != nil {
			return
		}
		res.Pass = nil
		tr.results[i] = res
	})
	var cells, cellGroup []int
	for gi, g := range tr.groups {
		tr.decodeS += g.decodeS
		for _, i := range g.idxs {
			if g.err != nil {
				tr.errs[i] = g.err
			} else if i != g.idxs[0] {
				cells = append(cells, i)
				cellGroup = append(cellGroup, gi)
			}
		}
	}
	pool(tr.workers, len(cells), func(w *tworker, n int) {
		i := cells[n]
		tr.results[i], _, tr.errs[i] = w.replay(tr.groups[cellGroup[n]].image, reqs, i, fmt.Sprintf("c%d", i))
	})
	tr.wall = time.Since(start).Seconds()

	// Image sizes, outside the timed phases: one decode at a time, so
	// the allocation growth across it is that image's alone.
	for _, g := range tr.groups {
		if g.err != nil {
			continue
		}
		before := allocBytes()
		if _, err := interp.NewImage(g.image.Trace()); err == nil {
			tr.imageB += allocBytes() - before
		}
	}

	// Break-even probes, outside the timed phases and with accounts of
	// their own, so the layer accounts above stay those of the pass:
	// the first cell of each group (served by its recording) once
	// directly and once by replay. Both must reproduce the recorded
	// statistics.
	probeLay := newLayerAcc()
	probes := []*tworker{newWorker(log, probeLay, tick, 2), newWorker(log, probeLay, tick, 3)}
	pool(probes, 2*len(tr.groups), func(w *tworker, n int) {
		g := tr.groups[n/2]
		if g.err != nil {
			return
		}
		i := g.idxs[0]
		unit := fmt.Sprintf("g%d", n/2)
		var res *core.Result
		var d time.Duration
		var err error
		if n%2 == 0 {
			res, _, d, err = w.interpret(reqs[i], unit, false)
			g.directS = d.Seconds()
		} else {
			res, d, err = w.replay(g.image, reqs, i, unit)
			g.replay0S = d.Seconds()
		}
		if err == nil && digest(reqs[i:i+1], []*core.Result{res}) != digest(reqs[i:i+1], tr.results[i:i+1]) {
			err = errors.New("statistics differ from the recorded cell")
		}
		if err != nil {
			g.probeErr[n%2] = err
		}
	})
	for n, g := range tr.groups {
		for _, err := range g.probeErr {
			if err != nil {
				rep.fail("break-even probe of group %d: %v", n, err)
			}
		}
	}
	for _, g := range tr.groups {
		g.image = nil
	}
	tr.spans = log.spans
	return tr
}

// layerMetrics reports the per-layer metrics of a traced pass.
func (tr *tracedResult) layerMetrics(reqs []sweep.Request, rep *report) {
	lay := tr.lay
	accs := make(map[string]*coreAcc)
	for _, w := range tr.workers {
		for m, a := range w.accs {
			sum := accs[m]
			if sum == nil {
				sum = &coreAcc{}
				accs[m] = sum
			}
			for k := range a.calls {
				sum.calls[k] += a.calls[k]
			}
			sum.estNs += a.estNs
		}
	}
	rep.set("prefetch.pass_ms", ratio(lay.passNs/1e6, lay.passes))
	var em, rej int
	for _, v := range lay.emitted {
		em += v[0]
		rej += v[1]
	}
	rep.set("prefetch.emitted", float64(em))
	rep.set("prefetch.accept_frac", ratio(float64(em), float64(em+rej)))
	rep.set("interp.self_s", (lay.interpNs-lay.interpCoreNs)/1e9)
	rep.set("interp.executed", float64(lay.executed))
	rep.set("interp.ns_per_executed", ratio(lay.interpNs-lay.interpCoreNs, float64(lay.executed)))
	rep.set("trace.record_s", lay.recordNs/1e9)
	rep.set("trace.bytes_per_executed", ratio(float64(lay.traceBytes), float64(lay.recExecuted)))
	rep.set("trace.decode_s", tr.decodeS)
	rep.set("trace.image_mb", tr.imageB/(1<<20))
	rep.set("trace.replay_self_s", (lay.replayNs-lay.replayCoreNs)/1e9)
	var replayCells int
	var evens []float64
	for _, g := range tr.groups {
		replayCells += len(g.idxs)
		if g.replay0S > 0 {
			lay.replaySeconds[g.idxs[0]] = g.replay0S
		}
		if g.directS > g.replay0S && g.replay0S > 0 {
			evens = append(evens, (g.recordS+g.decodeS-g.directS)/(g.directS-g.replay0S))
		}
	}
	rep.set("trace.cells_per_record", ratio(float64(replayCells), float64(len(tr.groups))))
	rep.set("trace.break_even_cells", median(evens))
	if len(tr.groups) > 0 {
		rep.note("replay groups: %d of %.0f cells each; break-even %.2f cells (median of %d groups)",
			len(tr.groups), ratio(float64(replayCells), float64(len(tr.groups))), median(evens), len(evens))
	}

	var calls [5]uint64
	for _, m := range coreModels {
		a := accs[m]
		if a == nil {
			continue
		}
		var n uint64
		for k, c := range a.calls {
			calls[k] += c
			n += c
		}
		rep.set("sim.core_s."+m, a.estNs/1e9)
		rep.set("sim.ns_per_call."+m, ratio(a.estNs, float64(n)))
	}
	for k, name := range callKinds {
		rep.set("sim.calls."+name, float64(calls[k]))
	}

	hwpfMetrics(reqs, tr.results, lay.replaySeconds, rep)
}

// hwpfMetrics reports each hardware prefetcher's issue and drop counts
// and its host cost: the replay time of a cell under the model minus
// that of the same kernel, variant, machine and core with no hardware
// prefetcher, per demand load.
func hwpfMetrics(reqs []sweep.Request, results []*core.Result, replayS map[int]float64, rep *report) {
	type coord struct{ workload, params, variant, machine, core string }
	coordOf := func(r sweep.Request) coord {
		return coord{r.Workload.Name, r.Workload.Params, string(r.Variant), r.System.Name, r.System.CoreName()}
	}
	noneS := make(map[coord]float64)
	for i, req := range reqs {
		if d, ok := replayS[i]; ok && req.System.HWPrefetcherName() == "none" {
			noneS[coordOf(req)] = d
		}
	}
	for _, m := range hwpfModels[1:] {
		var issued, dropped, loads uint64
		var extra float64
		for i, req := range reqs {
			res := results[i]
			if res == nil || req.System.HWPrefetcherName() != m {
				continue
			}
			issued += res.HWPrefetches
			dropped += res.HWPrefetchDropped
			d, ok := replayS[i]
			base, okBase := noneS[coordOf(req)]
			if ok && okBase {
				extra += d - base
				loads += res.Stats.Loads
			}
		}
		rep.set("hwpf."+m+".issued", float64(issued))
		rep.set("hwpf."+m+".dropped_frac", ratio(float64(dropped), float64(issued)))
		rep.set("hwpf."+m+".extra_ns_per_load", ratio(extra*1e9, float64(loads)))
	}
}
