package interp

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/hwpf"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Image is a trace predecoded into flat arrays, ready to be replayed
// against any number of machine configurations. Building the Image
// pays the varint/stream decoding cost exactly once; each Replay is
// then a tight loop over the arrays issuing sim.Core calls. The sweep
// runner builds one Image per (workload, variant) group and fans the
// machine × hwpf cells off it, so per-cell cost is the timing model
// plus array dispatch — no interpretation, no decoding.
//
// The layout is compact because a sweep holds one image per open
// group. Every event costs one header byte; the other arrays hold only
// what some events carry, in stream order, so replay walks each with
// its own cursor. Every array is sized exactly, from a census of the
// stream taken before decoding.
type Image struct {
	t *trace.Trace

	// hdr holds one byte per event: the trace.Kind in the low three
	// bits, the aux value in the next two (Op: LatClass; Prefetch:
	// 1=valid; Branch: 1=conditional; Poke: log2 of the width) and the
	// dependency count in the top three. A count of depEscape or more
	// is stored as depEscape, with the count itself in deps ahead of
	// the set.
	hdr []uint8

	// deps holds the dependency sets, flattened in event order: value
	// indices, plus the escaped counts.
	deps []uint32

	// pc and addr hold the operands of Load, Store and Prefetch events.
	pc   []int32
	addr []int64

	// Alloc sizes and Poke writes live apart: only memory-replica
	// rebuilds (IMP configs) read them.
	allocs []int64
	pokes  []poke
}

// poke is one recorded simulated-memory write.
type poke struct{ addr, val int64 }

// Header byte fields.
const (
	kindMask  = 1<<3 - 1
	auxShift  = 3
	auxMask   = 1<<2 - 1
	depShift  = 5
	depEscape = 1<<3 - 1
)

// NewImage decodes a trace into its replayable form, validating the
// stream (any corruption surfaces here, not mid-replay).
func NewImage(t *trace.Trace) (*Image, error) {
	if n := len(t.Summary.OpCounts); n != 0 && n != ir.NumOps {
		return nil, fmt.Errorf("interp: replay: trace has %d op counts, want %d (recorded by a different IR revision?)",
			n, ir.NumOps)
	}
	c := t.Census()
	mem := c.Kinds[trace.KindLoad] + c.Kinds[trace.KindStore] + c.Kinds[trace.KindPrefetch]
	deps := c.Deps
	for _, n := range c.DepSets[depEscape:] {
		deps += n // an escaped count takes a slot of its own
	}
	im := &Image{
		t:      t,
		hdr:    make([]uint8, t.NumEvents),
		deps:   make([]uint32, deps),
		pc:     make([]int32, mem),
		addr:   make([]int64, mem),
		allocs: make([]int64, c.Kinds[trace.KindAlloc]),
		pokes:  make([]poke, c.Kinds[trace.KindPoke]),
	}
	var i, dp, mp, ap, pp int // cursors: event, deps, pc/addr, allocs, pokes
	r := t.Events()
	var ev trace.Event
	for r.Next(&ev) {
		var aux uint8
		switch ev.Kind {
		case trace.KindOp:
			aux = uint8(ev.Lat)
		case trace.KindLoad, trace.KindStore, trace.KindPrefetch:
			if ev.Kind == trace.KindPrefetch && ev.Valid {
				aux = 1
			}
			im.pc[mp], im.addr[mp] = int32(ev.PC), ev.Addr
			mp++
		case trace.KindBranch:
			if ev.Conditional {
				aux = 1
			}
		case trace.KindAlloc:
			im.allocs[ap] = ev.Size
			ap++
		case trace.KindPoke:
			aux = uint8(bits.TrailingZeros(uint(ev.Width)))
			im.pokes[pp] = poke{ev.Addr, ev.Val}
			pp++
		}
		n := min(len(ev.Deps), depEscape)
		if n == depEscape {
			im.deps[dp] = uint32(len(ev.Deps))
			dp++
		}
		for _, d := range ev.Deps {
			im.deps[dp] = uint32(d)
			dp++
		}
		im.hdr[i] = uint8(ev.Kind) | aux<<auxShift | uint8(n)<<depShift
		i++
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return im, nil
}

// Trace returns the trace this image was decoded from.
func (im *Image) Trace() *trace.Trace { return im.t }

// valueBufs recycles Replay's buffers of value completion times, one
// float64 per value of the trace. A sweep replays thousands of cells,
// and a fresh buffer per cell would be most of what replay allocates.
var valueBufs = sync.Pool{New: func() any { return new([]float64) }}

// Replay drives the core timing model from the predecoded trace instead
// of live interpretation: the machine-retiming half of the record/replay
// split. The core is reset to a cold state first (mirroring NewOnCore),
// then each trace event issues the same sim.Core call, with the same
// arguments, that the recording run issued — readiness times are
// recomputed as the max completion time of each event's dependency set,
// which is exactly the computation the interpreter performs over its
// SSA readiness slots. The resulting statistics are byte-for-byte
// identical to a direct run of the same kernel on the same
// configuration (pinned by cmd/golden's direct-vs-replay diff and the
// gen.Oracle replay stage).
//
// If the configuration's hardware prefetcher speculates on memory
// values (hwpf.PeekSetter — the IMP model), a shadow replica of
// simulated memory is rebuilt from the trace's Alloc/Poke events and
// installed as the peek hook; allocation addresses are deterministic,
// so the replica reproduces the recording run's address space exactly.
// Stream-only models skip the replica, and with it most of the
// replay-side memory cost.
//
// The functional statistics (executed instructions, op counts, loads,
// stores, prefetches) come from the trace footer; only timing-side
// numbers are recomputed.
func (im *Image) Replay(c sim.CoreModel) (Stats, error) {
	var st Stats
	t := im.t

	c.Reset()
	var replica *Memory
	if _, ok := c.Hierarchy().Prefetcher().(hwpf.PeekSetter); ok {
		replica = NewMemory()
		c.Hierarchy().SetPeek(replica.Peek)
	}

	cfg := c.Config()
	lat := [4]int64{trace.Lat1: 1, trace.LatMul: cfg.MulLatency, trace.LatDiv: cfg.DivLatency}
	for i := range lat {
		if lat[i] == 0 {
			lat[i] = 1 // the decoder's zero-means-one clamp
		}
	}

	buf := valueBufs.Get().(*[]float64)
	defer valueBufs.Put(buf)
	if uint64(cap(*buf)) < t.NumValues {
		*buf = make([]float64, 0, t.NumValues)
	}
	values := (*buf)[:0]
	var dp, mp, ap, pp int // cursors: deps, pc/addr, allocs, pokes
	for _, h := range im.hdr {
		n := int(h >> depShift)
		if n == depEscape {
			n = int(im.deps[dp])
			dp++
		}
		var opsReady float64
		for _, d := range im.deps[dp : dp+n] {
			if v := values[d]; v > opsReady {
				opsReady = v
			}
		}
		dp += n
		aux := h >> auxShift & auxMask
		switch trace.Kind(h & kindMask) {
		case trace.KindOp:
			values = append(values, c.Op(opsReady, lat[aux]))
		case trace.KindLoad:
			values = append(values, c.Load(int(im.pc[mp]), im.addr[mp], opsReady))
			mp++
		case trace.KindStore:
			c.Store(int(im.pc[mp]), im.addr[mp], opsReady)
			mp++
		case trace.KindPrefetch:
			c.Prefetch(int(im.pc[mp]), im.addr[mp], opsReady, aux != 0)
			mp++
		case trace.KindBranch:
			c.Branch(opsReady, aux != 0)
		case trace.KindFinish:
			c.Finish()
		case trace.KindAlloc:
			if replica != nil {
				if _, err := replica.Alloc(im.allocs[ap]); err != nil {
					return st, fmt.Errorf("interp: replay: %w", err)
				}
			}
			ap++
		case trace.KindPoke:
			if replica != nil {
				p := im.pokes[pp]
				if err := replica.Store(p.addr, p.val, pokeType(1<<aux)); err != nil {
					return st, fmt.Errorf("interp: replay: %w", err)
				}
			}
			pp++
		}
	}

	st = Stats{
		Cycles:       c.Cycles(),
		Instructions: c.CoreStats().Instructions,
		Executed:     t.Summary.Executed,
		Loads:        t.Summary.Loads,
		Stores:       t.Summary.Stores,
		Prefetches:   t.Summary.Prefetches,
	}
	copy(st.OpCounts[:], t.Summary.OpCounts)
	return st, nil
}

// Replay is the one-shot form: decode the trace and retime it on c.
// Callers replaying one trace on many configurations should build the
// Image once with NewImage and call its Replay per configuration.
func Replay(t *trace.Trace, c sim.CoreModel) (Stats, error) {
	im, err := NewImage(t)
	if err != nil {
		return Stats{}, err
	}
	return im.Replay(c)
}

// pokeType maps a poke width back to the IR type Memory.Store expects.
func pokeType(width int) ir.Type {
	switch width {
	case 1:
		return ir.I8
	case 2:
		return ir.I16
	case 4:
		return ir.I32
	}
	return ir.I64
}
