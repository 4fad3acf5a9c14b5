// Package interp executes IR programs functionally over a simulated
// flat address space while driving a sim.CoreModel timing model, so that a
// program's result and its cycle cost come from one run.
package interp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/trace"
)

// Fault is a memory access violation: a load, store or division that
// the original program semantics define as erroneous. Software
// prefetches never raise Faults.
type Fault struct {
	Addr int64
	Op   ir.Op
	Msg  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("interp: fault: %s at address %#x: %s", f.Op, f.Addr, f.Msg)
}

// segment is one allocation in the flat address space.
type segment struct {
	base int64
	data []byte
}

// Memory is a flat 64-bit address space populated by Alloc. Allocations
// are page-aligned with guard gaps, so out-of-bounds accesses fault
// instead of silently hitting a neighbouring array.
type Memory struct {
	segs []segment // sorted by base
	next int64
	last int // index of the most recently hit segment

	// BytesAllocated is the total live allocation size.
	BytesAllocated int64

	// rec, when non-nil, receives an Alloc/Poke trace event for every
	// mutation. The hook lives on Memory rather than Machine because
	// workload executors also mutate memory directly from host Go code
	// (setup writes, inter-run stores) — those must reach the trace for
	// replay to rebuild an identical memory image.
	rec *trace.Writer
}

const (
	memBase  = 1 << 20 // first allocation address
	guardGap = 1 << 14 // space between allocations
)

// MaxAllocBytes caps the total bytes one address space may allocate.
// The largest registered workload allocates 37 MiB in total (CG at
// full size), so only a runaway IR alloc or a corrupt or hostile trace
// reaches the cap — which would otherwise panic in make or exhaust
// host memory.
const MaxAllocBytes = 1 << 30

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{next: memBase}
}

// Alloc reserves size bytes and returns the base address. The space is
// zero-initialised.
func (m *Memory) Alloc(size int64) (int64, error) {
	if size < 0 {
		return 0, &Fault{Op: ir.OpAlloc, Msg: fmt.Sprintf("negative allocation size %d", size)}
	}
	if size > MaxAllocBytes-m.BytesAllocated {
		return 0, &Fault{Op: ir.OpAlloc, Msg: fmt.Sprintf("allocation of %d bytes exceeds the %d-byte address-space cap (%d already allocated)",
			size, MaxAllocBytes, m.BytesAllocated)}
	}
	base := m.next
	m.segs = append(m.segs, segment{base: base, data: make([]byte, size)})
	m.next = base + size + guardGap
	// Round up to the next page for realism.
	m.next = (m.next + 4095) &^ 4095
	m.BytesAllocated += size
	if m.rec != nil {
		m.rec.Alloc(size)
	}
	return base, nil
}

// find returns the segment containing [addr, addr+width), or nil.
func (m *Memory) find(addr, width int64) *segment {
	if m.last < len(m.segs) {
		s := &m.segs[m.last]
		if addr >= s.base && addr+width <= s.base+int64(len(s.data)) {
			return s
		}
	}
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].base > addr })
	if i == 0 {
		return nil
	}
	s := &m.segs[i-1]
	if addr >= s.base && addr+width <= s.base+int64(len(s.data)) {
		m.last = i - 1
		return s
	}
	return nil
}

// Valid reports whether [addr, addr+width) lies inside an allocation.
func (m *Memory) Valid(addr, width int64) bool { return m.find(addr, width) != nil }

// Load reads a little-endian, sign-extended value of the given type.
func (m *Memory) Load(addr int64, t ir.Type) (int64, error) {
	w := t.Size()
	s := m.find(addr, w)
	if s == nil {
		return 0, &Fault{Addr: addr, Op: ir.OpLoad, Msg: "unmapped address"}
	}
	off := addr - s.base
	// Sign-extend narrower types, matching C's int semantics in the
	// benchmarks the paper uses.
	switch t {
	case ir.I8:
		return int64(int8(s.data[off])), nil
	case ir.I16:
		return int64(int16(binary.LittleEndian.Uint16(s.data[off:]))), nil
	case ir.I32:
		return int64(int32(binary.LittleEndian.Uint32(s.data[off:]))), nil
	case ir.I64, ir.Ptr:
		return int64(binary.LittleEndian.Uint64(s.data[off:])), nil
	}
	return 0, nil // zero-width access
}

// Peek reads a little-endian, sign-extended value of width bytes
// without faulting: ok is false for unmapped addresses or odd widths.
// It backs the hardware-prefetcher peek hook (hwpf.PeekFunc) — a
// value-speculating model like IMP inspecting data the hierarchy
// fetched — so it must never affect program semantics or timing.
func (m *Memory) Peek(addr, width int64) (int64, bool) {
	s := m.find(addr, width)
	if s == nil {
		return 0, false
	}
	off := addr - s.base
	switch width {
	case 1:
		return int64(int8(s.data[off])), true
	case 2:
		return int64(int16(binary.LittleEndian.Uint16(s.data[off:]))), true
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(s.data[off:]))), true
	case 8:
		return int64(binary.LittleEndian.Uint64(s.data[off:])), true
	}
	return 0, false
}

// Store writes a little-endian value of the given type.
func (m *Memory) Store(addr int64, val int64, t ir.Type) error {
	w := t.Size()
	s := m.find(addr, w)
	if s == nil {
		return &Fault{Addr: addr, Op: ir.OpStore, Msg: "unmapped address"}
	}
	off := addr - s.base
	switch w {
	case 1:
		s.data[off] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(s.data[off:], uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(s.data[off:], uint32(val))
	case 8:
		binary.LittleEndian.PutUint64(s.data[off:], uint64(val))
	}
	if m.rec != nil {
		m.rec.Poke(addr, int(w), val)
	}
	return nil
}

// WriteSlice bulk-initialises memory at base with 64-bit values scaled
// to the element type — the loader for workload data generators.
func (m *Memory) WriteSlice(base int64, t ir.Type, vals []int64) error {
	w := t.Size()
	for i, v := range vals {
		if err := m.Store(base+int64(i)*w, v, t); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns a SHA-256 digest of the full address-space image:
// every segment's base, length and contents, in allocation order. Two
// runs that performed the same allocations and left behind the same
// bytes produce equal snapshots, which is how the differential oracle
// (internal/gen) asserts that the prefetch pass preserved the final
// memory image — prefetches must never change architectural state.
func (m *Memory) Snapshot() [sha256.Size]byte {
	h := sha256.New()
	var hdr [16]byte
	for i := range m.segs {
		s := &m.segs[i]
		binary.LittleEndian.PutUint64(hdr[0:], uint64(s.base))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(len(s.data)))
		h.Write(hdr[:])
		h.Write(s.data)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// ReadSlice reads n values of the element type starting at base.
func (m *Memory) ReadSlice(base int64, t ir.Type, n int64) ([]int64, error) {
	w := t.Size()
	out := make([]int64, n)
	for i := int64(0); i < n; i++ {
		v, err := m.Load(base+int64(i)*w, t)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
