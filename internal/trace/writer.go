package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// Event tag bytes of the encoded stream. Flags and latency classes are
// folded into the tag so the common events cost one byte plus their
// varint fields.
const (
	tagEnd             = 0 // terminates the event stream; the footer follows
	tagOp1             = 1
	tagOpMul           = 2
	tagOpDiv           = 3
	tagLoad            = 4
	tagStore           = 5
	tagPrefetchValid   = 6
	tagPrefetchInvalid = 7
	tagBr              = 8
	tagCBr             = 9
	tagFinish          = 10
	tagAlloc           = 11
	tagPoke1           = 12
	tagPoke2           = 13
	tagPoke4           = 14
	tagPoke8           = 15
)

// magic opens every serialized trace.
var magic = [8]byte{'S', 'W', 'P', 'F', 'T', 'R', 'C', '\n'}

// Writer records an event stream. The interpreter's recording mode
// (interp.Machine.RecordTo) calls one method per core-visible event and
// per simulated-memory mutation; Close seals the stream into a Trace.
//
// Op and Load return the dense value index assigned to the event, which
// later events reference in their dependency sets. Dependency slices
// are consumed synchronously — callers may reuse their backing array.
type Writer struct {
	buf    []byte
	events uint64
	values uint64
}

// NewWriter returns an empty trace writer.
func NewWriter() *Writer { return &Writer{} }

func (w *Writer) uv(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }
func (w *Writer) sv(x int64)  { w.buf = binary.AppendVarint(w.buf, x) }

// deps encodes a dependency set as deltas back from the current value
// count: small, and independent of absolute stream position.
func (w *Writer) deps(deps []int64) {
	w.uv(uint64(len(deps)))
	for _, d := range deps {
		w.uv(w.values - uint64(d))
	}
}

// value finishes a value-producing event and returns its index.
func (w *Writer) value() int64 {
	w.events++
	idx := int64(w.values)
	w.values++
	return idx
}

// Op records an ALU operation of the given latency class.
func (w *Writer) Op(class LatClass, deps []int64) int64 {
	w.buf = append(w.buf, tagOp1+byte(class))
	w.deps(deps)
	return w.value()
}

// Load records a demand load.
func (w *Writer) Load(pc int, addr int64, deps []int64) int64 {
	w.buf = append(w.buf, tagLoad)
	w.uv(uint64(pc))
	w.sv(addr)
	w.deps(deps)
	return w.value()
}

// Store records a store.
func (w *Writer) Store(pc int, addr int64, deps []int64) {
	w.buf = append(w.buf, tagStore)
	w.uv(uint64(pc))
	w.sv(addr)
	w.deps(deps)
	w.events++
}

// Prefetch records a software prefetch. valid mirrors the non-faulting
// validity probe the interpreter passes to the core.
func (w *Writer) Prefetch(pc int, addr int64, valid bool, deps []int64) {
	tag := byte(tagPrefetchInvalid)
	if valid {
		tag = tagPrefetchValid
	}
	w.buf = append(w.buf, tag)
	w.uv(uint64(pc))
	w.sv(addr)
	w.deps(deps)
	w.events++
}

// Branch records a branch; conditional ones are mispredict-eligible.
func (w *Writer) Branch(conditional bool, deps []int64) {
	tag := byte(tagBr)
	if conditional {
		tag = tagCBr
	}
	w.buf = append(w.buf, tag)
	w.deps(deps)
	w.events++
}

// Finish records the end-of-run drain (sim.CoreModel.Finish).
func (w *Writer) Finish() {
	w.buf = append(w.buf, tagFinish)
	w.events++
}

// Alloc records a simulated-memory allocation. Allocation addresses are
// deterministic, so replay reconstructs the identical address space by
// re-allocating in order.
func (w *Writer) Alloc(size int64) {
	w.buf = append(w.buf, tagAlloc)
	w.uv(uint64(size))
	w.events++
}

// Poke records a simulated-memory write of width bytes (1, 2, 4 or 8) —
// kernel stores and untimed host-side setup writes alike. Widths
// outside the set are ignored (no IR type produces them).
func (w *Writer) Poke(addr int64, width int, val int64) {
	var tag byte
	switch width {
	case 1:
		tag = tagPoke1
	case 2:
		tag = tagPoke2
	case 4:
		tag = tagPoke4
	case 8:
		tag = tagPoke8
	default:
		return
	}
	w.buf = append(w.buf, tag)
	w.sv(addr)
	w.sv(val)
	w.events++
}

// Close seals the stream into a Trace with the given header coordinates
// and functional summary. The Writer must not be used afterwards.
func (w *Writer) Close(meta Meta, s Summary) *Trace {
	return &Trace{
		Meta:      meta,
		Summary:   s,
		NumEvents: w.events,
		NumValues: w.values,
		events:    w.buf,
	}
}

// Encode serializes the trace:
//
//	magic (8 bytes)
//	uvarint FormatVersion
//	uvarint len(meta JSON), meta JSON
//	uvarint len(event payload), event payload
//	tagEnd
//	footer: uvarint events, values, executed,
//	        len(opcounts) + opcounts, loads, stores, prefetches;
//	        varint checksum
//	CRC-32 (IEEE) of everything above, little-endian
//
// Encoding is deterministic: equal traces produce equal bytes.
func (t *Trace) Encode() []byte {
	metaJSON, err := json.Marshal(t.Meta)
	if err != nil {
		// Meta is four plain strings; Marshal cannot fail.
		panic(fmt.Sprintf("trace: marshal meta: %v", err))
	}
	out := make([]byte, 0, len(magic)+len(metaJSON)+len(t.events)+64+8*len(t.Summary.OpCounts))
	out = append(out, magic[:]...)
	out = binary.AppendUvarint(out, FormatVersion)
	out = binary.AppendUvarint(out, uint64(len(metaJSON)))
	out = append(out, metaJSON...)
	out = binary.AppendUvarint(out, uint64(len(t.events)))
	out = append(out, t.events...)
	out = append(out, tagEnd)
	out = binary.AppendUvarint(out, t.NumEvents)
	out = binary.AppendUvarint(out, t.NumValues)
	out = binary.AppendUvarint(out, t.Summary.Executed)
	out = binary.AppendUvarint(out, uint64(len(t.Summary.OpCounts)))
	for _, c := range t.Summary.OpCounts {
		out = binary.AppendUvarint(out, c)
	}
	out = binary.AppendUvarint(out, t.Summary.Loads)
	out = binary.AppendUvarint(out, t.Summary.Stores)
	out = binary.AppendUvarint(out, t.Summary.Prefetches)
	out = binary.AppendVarint(out, t.Summary.Checksum)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return out
}

// WriteTo serializes the trace to w (io.WriterTo).
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(t.Encode())
	return int64(n), err
}

// Equal reports whether two traces serialize identically — the
// byte-for-byte identity the machine-independence tests assert.
func Equal(a, b *Trace) bool { return bytes.Equal(a.Encode(), b.Encode()) }
