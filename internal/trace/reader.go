package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrCorrupt wraps every decoding failure: truncation, a CRC mismatch,
// a malformed varint, an out-of-range dependency. Callers that treat a
// damaged trace artifact as a cache miss test for it with errors.Is.
var ErrCorrupt = errors.New("corrupt trace")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("trace: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Read deserializes a trace from r (the inverse of Trace.WriteTo).
func Read(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return Decode(data)
}

// Decode deserializes a trace from its Encode form. The whole envelope
// is validated up front — magic, version, CRC, section lengths and the
// footer counts — so a truncated or bit-flipped file fails here with a
// clean ErrCorrupt instead of yielding partial statistics. Event-level
// validation (tags, dependency ranges) happens during iteration.
func Decode(data []byte) (*Trace, error) {
	if len(data) < len(magic)+4 || !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, corrupt("missing magic header")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, corrupt("CRC mismatch (truncated or damaged file)")
	}
	d := &decoder{data: body, pos: len(magic)}

	version := d.uv("format version")
	if version != FormatVersion {
		return nil, corrupt("format version %d, want %d", version, FormatVersion)
	}
	t := &Trace{}
	metaJSON := d.bytes("meta", d.uv("meta length"))
	if d.err == nil {
		if err := json.Unmarshal(metaJSON, &t.Meta); err != nil {
			return nil, corrupt("meta: %v", err)
		}
	}
	t.events = d.bytes("event payload", d.uv("event payload length"))
	if tag := d.bytes("end tag", 1); d.err == nil && tag[0] != tagEnd {
		return nil, corrupt("event payload not terminated by end tag")
	}
	t.NumEvents = d.uv("event count")
	t.NumValues = d.uv("value count")
	t.Summary.Executed = d.uv("executed count")
	if n := d.uv("opcount length"); d.err == nil {
		if n > uint64(len(body)) {
			return nil, corrupt("opcount length %d exceeds file size", n)
		}
		t.Summary.OpCounts = make([]uint64, n)
		for i := range t.Summary.OpCounts {
			t.Summary.OpCounts[i] = d.uv("opcount")
		}
	}
	t.Summary.Loads = d.uv("loads")
	t.Summary.Stores = d.uv("stores")
	t.Summary.Prefetches = d.uv("prefetches")
	t.Summary.Checksum = d.sv("checksum")
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(body) {
		return nil, corrupt("%d trailing bytes after footer", len(body)-d.pos)
	}
	// Replayers size their arrays from the footer counts before the
	// stream can contradict them, so bound the counts by the payload
	// here: every event is at least its tag byte, and every value is an
	// event.
	if t.NumEvents > uint64(len(t.events)) {
		return nil, corrupt("footer claims %d events in a %d-byte payload", t.NumEvents, len(t.events))
	}
	if t.NumValues > t.NumEvents {
		return nil, corrupt("footer claims %d values from %d events", t.NumValues, t.NumEvents)
	}
	return t, nil
}

// decoder cursors over the serialized envelope.
type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) uv(what string) uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.err = corrupt("truncated %s", what)
		return 0
	}
	d.pos += n
	return x
}

func (d *decoder) sv(what string) int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.err = corrupt("truncated %s", what)
		return 0
	}
	d.pos += n
	return x
}

func (d *decoder) bytes(what string, n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.data)-d.pos) {
		d.err = corrupt("truncated %s (%d bytes, %d left)", what, n, len(d.data)-d.pos)
		return nil
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b
}

// Reader iterates the event stream of a decoded (or freshly recorded)
// trace. It is the replay hot path: events decode on the fly from the
// compact payload, one at a time, into a caller-provided Event whose
// Deps slice the Reader owns and reuses.
type Reader struct {
	data   []byte
	pos    int
	events uint64 // events decoded so far
	values uint64 // value-producing events decoded so far
	t      *Trace
	deps   []uint64
	err    error
}

// Events returns an iterator over the trace's event stream.
func (t *Trace) Events() *Reader {
	return &Reader{data: t.events, t: t}
}

func (r *Reader) fail(format string, args ...any) bool {
	r.err = corrupt("event %d: %s", r.events, fmt.Sprintf(format, args...))
	return false
}

func (r *Reader) uv() (uint64, bool) {
	if r.pos < len(r.data) && r.data[r.pos] < 0x80 { // one-byte fast path
		r.pos++
		return uint64(r.data[r.pos-1]), true
	}
	x, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, false
	}
	r.pos += n
	return x, true
}

func (r *Reader) sv() (int64, bool) {
	x, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, false
	}
	r.pos += n
	return x, true
}

// readDeps decodes a dependency set into ev.Deps as absolute value
// indices, validating each against the values produced so far.
func (r *Reader) readDeps(ev *Event) bool {
	n, ok := r.uv()
	if !ok {
		return r.fail("truncated dependency count")
	}
	if n > uint64(len(r.data)) {
		return r.fail("dependency count %d exceeds stream size", n)
	}
	deps := r.deps[:0]
	for i := uint64(0); i < n; i++ {
		delta, ok := r.uv()
		if !ok {
			return r.fail("truncated dependency")
		}
		if delta == 0 || delta > r.values {
			return r.fail("dependency delta %d out of range (have %d values)", delta, r.values)
		}
		deps = append(deps, r.values-delta)
	}
	r.deps = deps
	ev.Deps = deps
	return true
}

// Next decodes the next event into ev and reports whether one was
// decoded. After it returns false, Err distinguishes a clean end of
// stream from corruption. ev.Deps is only valid until the next call.
func (r *Reader) Next(ev *Event) bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.data) {
		if r.events != r.t.NumEvents || r.values != r.t.NumValues {
			return r.fail("stream ended with %d events / %d values, footer says %d / %d",
				r.events, r.values, r.t.NumEvents, r.t.NumValues)
		}
		return false
	}
	tag := r.data[r.pos]
	r.pos++
	ok := true
	switch tag {
	case tagOp1, tagOpMul, tagOpDiv:
		ev.Kind = KindOp
		ev.Lat = LatClass(tag - tagOp1)
		if !r.readDeps(ev) {
			return false
		}
		r.values++
	case tagLoad:
		ev.Kind = KindLoad
		var pc uint64
		if pc, ok = r.uv(); ok {
			ev.PC = int(pc)
			ev.Addr, ok = r.sv()
		}
		if !ok {
			return r.fail("truncated load")
		}
		if !r.readDeps(ev) {
			return false
		}
		r.values++
	case tagStore:
		ev.Kind = KindStore
		var pc uint64
		if pc, ok = r.uv(); ok {
			ev.PC = int(pc)
			ev.Addr, ok = r.sv()
		}
		if !ok {
			return r.fail("truncated store")
		}
		if !r.readDeps(ev) {
			return false
		}
	case tagPrefetchValid, tagPrefetchInvalid:
		ev.Kind = KindPrefetch
		ev.Valid = tag == tagPrefetchValid
		var pc uint64
		if pc, ok = r.uv(); ok {
			ev.PC = int(pc)
			ev.Addr, ok = r.sv()
		}
		if !ok {
			return r.fail("truncated prefetch")
		}
		if !r.readDeps(ev) {
			return false
		}
	case tagBr, tagCBr:
		ev.Kind = KindBranch
		ev.Conditional = tag == tagCBr
		if !r.readDeps(ev) {
			return false
		}
	case tagFinish:
		ev.Kind = KindFinish
		ev.Deps = nil
	case tagAlloc:
		ev.Kind = KindAlloc
		ev.Deps = nil
		var size uint64
		if size, ok = r.uv(); !ok {
			return r.fail("truncated alloc")
		}
		ev.Size = int64(size)
	case tagPoke1, tagPoke2, tagPoke4, tagPoke8:
		ev.Kind = KindPoke
		ev.Deps = nil
		ev.Width = 1 << (tag - tagPoke1)
		if ev.Addr, ok = r.sv(); ok {
			ev.Val, ok = r.sv()
		}
		if !ok {
			return r.fail("truncated poke")
		}
	default:
		return r.fail("unknown tag %d", tag)
	}
	r.events++
	if r.events > r.t.NumEvents {
		return r.fail("more events than the footer's %d", r.t.NumEvents)
	}
	return true
}

// Err returns the corruption error that stopped iteration, or nil.
func (r *Reader) Err() error { return r.err }

// Census tallies an event stream by what a replayer stores per event,
// so that it can size its arrays exactly before it decodes.
type Census struct {
	Kinds [KindPoke + 1]uint64 // events per Kind
	// DepSets counts events by dependency-set size; the last bucket
	// holds every set of len(DepSets)-1 or more.
	DepSets [8]uint64
	Deps    uint64 // dependency indices over all events
}

// tagShape is what follows a tag byte: the varint fields before the
// dependency set, and whether a dependency set follows.
type tagShape struct {
	kind   Kind
	fields int
	deps   bool
}

var tagShapes = [...]tagShape{
	tagOp1:             {KindOp, 0, true},
	tagOpMul:           {KindOp, 0, true},
	tagOpDiv:           {KindOp, 0, true},
	tagLoad:            {KindLoad, 2, true},
	tagStore:           {KindStore, 2, true},
	tagPrefetchValid:   {KindPrefetch, 2, true},
	tagPrefetchInvalid: {KindPrefetch, 2, true},
	tagBr:              {KindBranch, 0, true},
	tagCBr:             {KindBranch, 0, true},
	tagFinish:          {KindFinish, 0, false},
	tagAlloc:           {KindAlloc, 1, false},
	tagPoke1:           {KindPoke, 2, false},
	tagPoke2:           {KindPoke, 2, false},
	tagPoke4:           {KindPoke, 2, false},
	tagPoke8:           {KindPoke, 2, false},
}

// Census scans the event payload without decoding field values. On a
// well-formed stream its counts are exactly what a Reader yields; on a
// malformed one it stops at the first event it cannot frame, and every
// prefix the Reader accepts is counted in full, so arrays sized from
// the census never overflow while a Reader fills them.
func (t *Trace) Census() Census {
	var c Census
	data := t.events
	pos := 0
	skip := func() bool { // one varint
		for pos < len(data) {
			pos++
			if data[pos-1] < 0x80 {
				return true
			}
		}
		return false
	}
	for pos < len(data) {
		tag := data[pos]
		pos++
		if tag == tagEnd || int(tag) >= len(tagShapes) {
			break
		}
		sh := tagShapes[tag]
		ok := true
		for i := 0; i < sh.fields && ok; i++ {
			ok = skip()
		}
		if ok && sh.deps {
			n, w := binary.Uvarint(data[pos:])
			if w <= 0 || n > uint64(len(data)-pos-w) {
				break
			}
			pos += w
			for i := uint64(0); i < n && ok; i++ {
				ok = skip()
			}
			c.DepSets[min(n, uint64(len(c.DepSets)-1))]++
			c.Deps += n
		}
		if !ok {
			break
		}
		c.Kinds[sh.kind]++
	}
	return c
}
