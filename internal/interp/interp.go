package interp

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Stats aggregates the dynamic behaviour of one run.
type Stats struct {
	Cycles       float64
	Instructions uint64 // issued by the core (excludes phis)
	Executed     uint64 // interpreted instructions (includes phis)
	OpCounts     [ir.NumOps]uint64
	Loads        uint64
	Stores       uint64
	Prefetches   uint64
}

// Machine runs IR programs against a simulated core. Functions are
// lowered to a flat micro-op stream on first execution and the decoded
// form is cached on the machine (see predecode.go), so repeated runs
// and hot loops pay no per-instruction IR traversal cost.
type Machine struct {
	Mod  *ir.Module
	Core sim.CoreModel
	Mem  *Memory

	// MaxInstrs bounds the dynamic instruction count (0 = 2^40),
	// guarding against runaway loops in generated code.
	MaxInstrs uint64

	stats Stats

	// decoded caches the per-function lowering; phiV/phiR are scratch
	// buffers for the parallel phi copy (phi evaluation never nests, so
	// one machine-wide pair suffices even across calls).
	decoded map[*ir.Function]*dfunc
	phiV    []int64
	phiR    []float64

	// Recording mode (RecordTo). rec receives one event per core call;
	// phiS/depBuf are scratch for readiness-source propagation and
	// dependency-set gathering; retSrc threads the returned value's
	// source through OpCall like the (value, readiness) pair is
	// threaded through call's return values.
	rec    *trace.Writer
	phiS   []int64
	depBuf []int64
	retSrc int64
}

// runs counts Machine.Run invocations process-wide — the
// interp-invocation counter replay amortization tests assert against:
// a full-grid sweep in replay mode must interpret each (workload,
// variant) exactly once, however many machine × hwpf cells it retimes.
var runs atomic.Uint64

// Runs returns the process-wide count of Machine.Run invocations.
func Runs() uint64 { return runs.Load() }

// New builds a machine for the module over a fresh core of the given
// configuration; the core timing model is whatever cfg.Core selects
// (empty = the legacy interval model).
func New(mod *ir.Module, cfg *sim.Config) *Machine {
	return NewOnCore(mod, sim.NewCoreModel(cfg))
}

// NewOnCore builds a machine over an existing simulator core, resetting
// the core to a cold state first. This is the storage-recycling entry
// point for worker pools (internal/sweep): the core's Reset paths keep
// their cache/TLB/MSHR table allocations, so a goroutine running many
// independent experiments reuses one set of tables per machine
// configuration instead of reallocating them every run. Behaviour is
// identical to New with a freshly built core.
func NewOnCore(mod *ir.Module, core sim.CoreModel) *Machine {
	core.Reset()
	m := &Machine{
		Mod:  mod,
		Core: core,
		Mem:  NewMemory(),
	}
	// Point the prefetcher peek hook at this machine's memory; a
	// recycled core last peeked into the previous run's address space.
	m.Core.Hierarchy().SetPeek(m.Mem.Peek)
	return m
}

// RecordTo attaches a trace writer: every subsequent core-visible
// event (ops, loads, stores, prefetches, branches, finish) and every
// simulated-memory mutation is mirrored into w, producing a trace that
// Image.Replay can retime on any machine configuration. Recording
// changes nothing about the run itself — the same core calls happen
// with the same arguments — it only tracks, per SSA slot, which trace
// event produced the slot's readiness time, so events can carry
// machine-independent dependency sets instead of timestamps. Pass nil
// to detach.
func (m *Machine) RecordTo(w *trace.Writer) {
	m.rec = w
	m.Mem.rec = w
}

// Stats returns the accumulated statistics.
func (m *Machine) Stats() Stats {
	m.stats.Cycles = m.Core.Cycles()
	m.stats.Instructions = m.Core.CoreStats().Instructions
	return m.stats
}

const maxCallDepth = 64

// Run executes the named function with the given arguments and returns
// its result. Timing accumulates across calls; use a fresh Machine (or
// Core.Reset) for independent measurements.
func (m *Machine) Run(name string, args ...int64) (int64, error) {
	f := m.Mod.Func(name)
	if f == nil {
		return 0, fmt.Errorf("interp: no function %q", name)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp: %s takes %d arguments, got %d", name, len(f.Params), len(args))
	}
	if m.MaxInstrs == 0 {
		m.MaxInstrs = 1 << 40
	}
	runs.Add(1)
	ready := make([]float64, len(args))
	var src []int64
	if m.rec != nil {
		src = make([]int64, len(args))
		for i := range src {
			src[i] = -1 // arguments are ready at time zero
		}
	}
	v, _, err := m.call(m.decode(f), args, ready, src, 0)
	if err != nil {
		return 0, err
	}
	m.Core.Finish()
	if m.rec != nil {
		m.rec.Finish()
	}
	return v, nil
}

// frame holds one activation: SSA value/readiness slots plus the
// incoming arguments. Operands are pre-resolved slot references (see
// predecode.go), so reading one is an array index, not an interface
// type switch.
type frame struct {
	vals      []int64
	ready     []float64
	args      []int64
	argsReady []float64

	// src/argsSrc mirror ready/argsReady with the trace value-index
	// that produced each readiness time (-1 = ready at time zero).
	// Allocated only while recording.
	src     []int64
	argsSrc []int64
}

// get returns the runtime value and readiness time of an operand.
func (fr *frame) get(o operand) (int64, float64) {
	switch o.kind {
	case opdConst:
		return o.imm, 0
	case opdParam:
		return fr.args[o.idx], fr.argsReady[o.idx]
	}
	return fr.vals[o.idx], fr.ready[o.idx]
}

// readyOf returns just the readiness time of an operand.
func (fr *frame) readyOf(o operand) float64 {
	switch o.kind {
	case opdConst:
		return 0
	case opdParam:
		return fr.argsReady[o.idx]
	}
	return fr.ready[o.idx]
}

// srcOf returns the trace value-index that produced the operand's
// readiness (-1 = ready at time zero). Recording mode only.
func (fr *frame) srcOf(o operand) int64 {
	switch o.kind {
	case opdConst:
		return -1
	case opdParam:
		return fr.argsSrc[o.idx]
	}
	return fr.src[o.idx]
}

// recDeps gathers the dependency set of a uop: the sources of its
// operands, in operand order, skipping time-zero ones — exactly the
// inputs of the opsReady max the timing calls receive. The returned
// slice is machine-owned scratch, consumed synchronously by the
// writer.
func (m *Machine) recDeps(fr *frame, u *uop) []int64 {
	deps := m.depBuf[:0]
	if u.xargs != nil {
		for _, o := range u.xargs {
			if s := fr.srcOf(o); s >= 0 {
				deps = append(deps, s)
			}
		}
	} else {
		if u.nargs > 0 {
			if s := fr.srcOf(u.a0); s >= 0 {
				deps = append(deps, s)
			}
		}
		if u.nargs > 1 {
			if s := fr.srcOf(u.a1); s >= 0 {
				deps = append(deps, s)
			}
		}
		if u.nargs > 2 {
			if s := fr.srcOf(u.a2); s >= 0 {
				deps = append(deps, s)
			}
		}
	}
	m.depBuf = deps
	return deps
}

// call executes one decoded function activation: the flat uop loop that
// replaces per-instruction IR traversal.
func (m *Machine) call(df *dfunc, args []int64, argsReady []float64, argsSrc []int64, depth int) (int64, float64, error) {
	if depth > maxCallDepth {
		return 0, 0, fmt.Errorf("interp: call depth exceeded in %s", df.name)
	}
	fr := frame{
		vals:      make([]int64, df.numVals),
		ready:     make([]float64, df.numVals),
		args:      args,
		argsReady: argsReady,
		argsSrc:   argsSrc,
	}
	if m.rec != nil {
		// Slots default to source 0, but SSA def-before-use (ir.Verify)
		// guarantees no slot is read before it is written, same as vals.
		fr.src = make([]int64, df.numVals)
	}

	bi, prev := int32(0), int32(-1)
blocks:
	for {
		b := &df.blocks[bi]

		// Phase 1: evaluate phis in parallel against the incoming edge.
		if n := len(b.phiIDs); n > 0 {
			var row []operand
			if prev >= 0 {
				row = b.phiArgs[prev]
			}
			if cap(m.phiV) < n {
				m.phiV = make([]int64, n)
				m.phiR = make([]float64, n)
				m.phiS = make([]int64, n)
			}
			tmpV, tmpR := m.phiV[:n], m.phiR[:n]
			for i := 0; i < n; i++ {
				if row == nil || row[i].kind == opdMissing {
					prevName := "<entry>"
					if prev >= 0 {
						prevName = df.blocks[prev].name
					}
					return 0, 0, fmt.Errorf("interp: phi %%%s has no edge from %s", b.phiNames[i], prevName)
				}
				tmpV[i], tmpR[i] = fr.get(row[i])
			}
			if m.rec != nil {
				// Phis are parallel copies with no core call: propagate
				// the readiness source alongside the readiness time.
				tmpS := m.phiS[:n]
				for i := 0; i < n; i++ {
					tmpS[i] = fr.srcOf(row[i])
				}
				for i := 0; i < n; i++ {
					fr.src[b.phiIDs[i]] = tmpS[i]
				}
			}
			for i := 0; i < n; i++ {
				fr.vals[b.phiIDs[i]] = tmpV[i]
				fr.ready[b.phiIDs[i]] = tmpR[i]
				m.stats.Executed++
				m.stats.OpCounts[ir.OpPhi]++
			}
		}

		for ui := range b.uops {
			u := &b.uops[ui]
			if m.stats.Executed >= m.MaxInstrs {
				return 0, 0, fmt.Errorf("interp: instruction budget (%d) exhausted in %s", m.MaxInstrs, df.name)
			}
			m.stats.Executed++
			m.stats.OpCounts[u.op]++

			// Latest readiness among the operands.
			var opsReady float64
			if u.xargs != nil {
				for _, o := range u.xargs {
					if r := fr.readyOf(o); r > opsReady {
						opsReady = r
					}
				}
			} else {
				if u.nargs > 0 {
					opsReady = fr.readyOf(u.a0)
				}
				if u.nargs > 1 {
					if r := fr.readyOf(u.a1); r > opsReady {
						opsReady = r
					}
				}
				if u.nargs > 2 {
					if r := fr.readyOf(u.a2); r > opsReady {
						opsReady = r
					}
				}
			}

			switch u.op {
			case ir.OpAlloc:
				elems, _ := fr.get(u.a0)
				esize, _ := fr.get(u.a1)
				base, aerr := m.Mem.Alloc(elems * esize)
				if aerr != nil {
					return 0, 0, aerr
				}
				fr.vals[u.id] = base
				fr.ready[u.id] = m.Core.Op(opsReady, 1)
				if m.rec != nil {
					fr.src[u.id] = m.rec.Op(trace.Lat1, m.recDeps(&fr, u))
				}

			case ir.OpLoad:
				addr, _ := fr.get(u.a0)
				v, lerr := m.Mem.Load(addr, u.typ)
				if lerr != nil {
					return 0, 0, lerr
				}
				m.stats.Loads++
				fr.vals[u.id] = v
				fr.ready[u.id] = m.Core.Load(int(u.id), addr, opsReady)
				if m.rec != nil {
					fr.src[u.id] = m.rec.Load(int(u.id), addr, m.recDeps(&fr, u))
				}

			case ir.OpStore:
				addr, _ := fr.get(u.a0)
				v, _ := fr.get(u.a1)
				if serr := m.Mem.Store(addr, v, u.typ); serr != nil {
					return 0, 0, serr
				}
				m.stats.Stores++
				m.Core.Store(int(u.id), addr, opsReady)
				if m.rec != nil {
					m.rec.Store(int(u.id), addr, m.recDeps(&fr, u))
				}

			case ir.OpPrefetch:
				addr, _ := fr.get(u.a0)
				m.stats.Prefetches++
				valid := m.Mem.Valid(addr, 1)
				m.Core.Prefetch(int(u.id), addr, opsReady, valid)
				if m.rec != nil {
					m.rec.Prefetch(int(u.id), addr, valid, m.recDeps(&fr, u))
				}

			case ir.OpGEP:
				base, _ := fr.get(u.a0)
				idx, _ := fr.get(u.a1)
				scale, _ := fr.get(u.a2)
				fr.vals[u.id] = base + idx*scale
				fr.ready[u.id] = m.Core.Op(opsReady, 1)
				if m.rec != nil {
					fr.src[u.id] = m.rec.Op(trace.Lat1, m.recDeps(&fr, u))
				}

			case ir.OpCmp:
				a, _ := fr.get(u.a0)
				bv, _ := fr.get(u.a1)
				if u.pred.Eval(a, bv) {
					fr.vals[u.id] = 1
				} else {
					fr.vals[u.id] = 0
				}
				fr.ready[u.id] = m.Core.Op(opsReady, 1)
				if m.rec != nil {
					fr.src[u.id] = m.rec.Op(trace.Lat1, m.recDeps(&fr, u))
				}

			case ir.OpSelect:
				c, _ := fr.get(u.a0)
				a, _ := fr.get(u.a1)
				bv, _ := fr.get(u.a2)
				if c != 0 {
					fr.vals[u.id] = a
				} else {
					fr.vals[u.id] = bv
				}
				fr.ready[u.id] = m.Core.Op(opsReady, 1)
				if m.rec != nil {
					fr.src[u.id] = m.rec.Op(trace.Lat1, m.recDeps(&fr, u))
				}

			case ir.OpCall:
				callee := u.calleeFn
				if callee == nil {
					if callee = m.Mod.Func(u.callee); callee == nil {
						return 0, 0, fmt.Errorf("interp: call to undefined @%s", u.callee)
					}
					u.calleeFn = callee
				}
				cdf := m.decode(callee)
				cargs := make([]int64, len(u.xargs))
				cready := make([]float64, len(u.xargs))
				var csrc []int64
				for i, o := range u.xargs {
					cargs[i], cready[i] = fr.get(o)
				}
				m.Core.Op(opsReady, 1) // call overhead
				if m.rec != nil {
					m.rec.Op(trace.Lat1, m.recDeps(&fr, u))
					csrc = make([]int64, len(u.xargs))
					for i, o := range u.xargs {
						csrc[i] = fr.srcOf(o)
					}
				}
				v, r, cerr := m.call(cdf, cargs, cready, csrc, depth+1)
				if cerr != nil {
					return 0, 0, cerr
				}
				fr.vals[u.id] = v
				fr.ready[u.id] = r
				if m.rec != nil {
					fr.src[u.id] = m.retSrc
				}

			case ir.OpBr:
				m.Core.Branch(opsReady, false)
				if m.rec != nil {
					m.rec.Branch(false, m.recDeps(&fr, u))
				}
				prev, bi = bi, u.tgt0
				continue blocks

			case ir.OpCBr:
				c, _ := fr.get(u.a0)
				m.Core.Branch(opsReady, true)
				if m.rec != nil {
					m.rec.Branch(true, m.recDeps(&fr, u))
				}
				if c != 0 {
					prev, bi = bi, u.tgt0
				} else {
					prev, bi = bi, u.tgt1
				}
				continue blocks

			case ir.OpRet:
				m.Core.Op(opsReady, 1)
				if m.rec != nil {
					m.rec.Op(trace.Lat1, m.recDeps(&fr, u))
					m.retSrc = -1
					if u.nargs == 1 {
						m.retSrc = fr.srcOf(u.a0)
					}
				}
				if u.nargs == 1 {
					v, r := fr.get(u.a0)
					return v, r, nil
				}
				return 0, 0, nil

			default:
				// Binary arithmetic; latency was resolved at decode time.
				a, _ := fr.get(u.a0)
				bv, _ := fr.get(u.a1)
				var v int64
				switch u.op {
				case ir.OpAdd:
					v = a + bv
				case ir.OpSub:
					v = a - bv
				case ir.OpMul:
					v = a * bv
				case ir.OpDiv:
					if bv == 0 {
						return 0, 0, &Fault{Op: ir.OpDiv, Msg: "division by zero"}
					}
					v = a / bv
				case ir.OpRem:
					if bv == 0 {
						return 0, 0, &Fault{Op: ir.OpRem, Msg: "division by zero"}
					}
					v = a % bv
				case ir.OpAnd:
					v = a & bv
				case ir.OpOr:
					v = a | bv
				case ir.OpXor:
					v = a ^ bv
				case ir.OpShl:
					v = a << (uint64(bv) & 63)
				case ir.OpShr:
					v = int64(uint64(a) >> (uint64(bv) & 63))
				case ir.OpMin:
					v = a
					if bv < a {
						v = bv
					}
				case ir.OpMax:
					v = a
					if bv > a {
						v = bv
					}
				default:
					return 0, 0, fmt.Errorf("interp: unimplemented opcode %s", u.op)
				}
				fr.vals[u.id] = v
				fr.ready[u.id] = m.Core.Op(opsReady, u.lat)
				if m.rec != nil {
					// Record the latency class, not u.lat: multiply and
					// divide latencies are machine configuration, which
					// must not leak into the (machine-independent) trace.
					class := trace.Lat1
					switch u.op {
					case ir.OpMul:
						class = trace.LatMul
					case ir.OpDiv, ir.OpRem:
						class = trace.LatDiv
					}
					fr.src[u.id] = m.rec.Op(class, m.recDeps(&fr, u))
				}
			}
		}
		return 0, 0, fmt.Errorf("interp: block %s fell through without terminator", b.name)
	}
}
