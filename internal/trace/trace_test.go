package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
)

// sample builds a small but representative trace: every event kind,
// dependency sets, both prefetch validities, both branch flavours.
func sample() *Trace {
	w := NewWriter()
	w.Alloc(4096)
	w.Poke(1<<20, 4, -7)
	w.Poke(1<<20+4, 8, 1234567890123)
	a := w.Op(Lat1, nil)
	b := w.Load(3, 1<<20, []int64{a})
	c := w.Op(LatMul, []int64{a, b})
	w.Store(4, 1<<20+8, []int64{b, c})
	w.Prefetch(5, 1<<20+64, true, []int64{c})
	w.Prefetch(6, -12345, false, nil)
	d := w.Op(LatDiv, []int64{c})
	w.Branch(true, []int64{d})
	w.Branch(false, nil)
	w.Finish()
	return w.Close(
		Meta{Workload: "T", Params: "n=4", Variant: "plain", Options: "c=64"},
		Summary{Executed: 12, OpCounts: []uint64{3, 1, 0, 2}, Loads: 1, Stores: 1, Prefetches: 2, Checksum: -42},
	)
}

// TestRoundTrip pins the satellite requirement: write → read → write is
// byte-identical, and every decoded field survives.
func TestRoundTrip(t *testing.T) {
	tr := sample()
	enc := tr.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Meta != tr.Meta {
		t.Errorf("meta: got %+v, want %+v", got.Meta, tr.Meta)
	}
	if got.NumEvents != tr.NumEvents || got.NumValues != tr.NumValues {
		t.Errorf("counts: got %d/%d, want %d/%d", got.NumEvents, got.NumValues, tr.NumEvents, tr.NumValues)
	}
	if got.Summary.Checksum != -42 || got.Summary.Executed != 12 || got.Summary.Loads != 1 ||
		got.Summary.Stores != 1 || got.Summary.Prefetches != 2 || len(got.Summary.OpCounts) != 4 {
		t.Errorf("summary: got %+v", got.Summary)
	}
	reenc := got.Encode()
	if !bytes.Equal(enc, reenc) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(enc), len(reenc))
	}
	if !Equal(tr, got) {
		t.Fatal("Equal() disagrees with byte comparison")
	}

	// WriteTo/Read round-trip too.
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got2, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !Equal(tr, got2) {
		t.Fatal("Read round-trip differs")
	}
}

// TestEventStream decodes the sample stream and checks the event
// sequence, dependency resolution and per-kind fields.
func TestEventStream(t *testing.T) {
	tr, err := Decode(sample().Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	type want struct {
		kind Kind
		deps []uint64
	}
	wants := []want{
		{KindAlloc, nil},
		{KindPoke, nil},
		{KindPoke, nil},
		{KindOp, nil},
		{KindLoad, []uint64{0}},
		{KindOp, []uint64{0, 1}},
		{KindStore, []uint64{1, 2}},
		{KindPrefetch, []uint64{2}},
		{KindPrefetch, nil},
		{KindOp, []uint64{2}},
		{KindBranch, []uint64{3}},
		{KindBranch, nil},
		{KindFinish, nil},
	}
	r := tr.Events()
	var ev Event
	for i, w := range wants {
		if !r.Next(&ev) {
			t.Fatalf("event %d: stream ended early: %v", i, r.Err())
		}
		if ev.Kind != w.kind {
			t.Fatalf("event %d: kind %s, want %s", i, ev.Kind, w.kind)
		}
		if len(ev.Deps) != len(w.deps) {
			t.Fatalf("event %d: %d deps, want %d", i, len(ev.Deps), len(w.deps))
		}
		for j := range w.deps {
			if ev.Deps[j] != w.deps[j] {
				t.Fatalf("event %d dep %d: %d, want %d", i, j, ev.Deps[j], w.deps[j])
			}
		}
	}
	if r.Next(&ev) {
		t.Fatal("stream has extra events")
	}
	if r.Err() != nil {
		t.Fatalf("clean end reported error: %v", r.Err())
	}

	// Spot-check decoded fields.
	r = tr.Events()
	var evs []Event
	for {
		var e Event
		if !r.Next(&e) {
			break
		}
		e.Deps = append([]uint64(nil), e.Deps...)
		evs = append(evs, e)
	}
	if evs[0].Size != 4096 {
		t.Errorf("alloc size %d", evs[0].Size)
	}
	if evs[1].Addr != 1<<20 || evs[1].Width != 4 || evs[1].Val != -7 {
		t.Errorf("poke: %+v", evs[1])
	}
	if evs[2].Width != 8 || evs[2].Val != 1234567890123 {
		t.Errorf("poke8: %+v", evs[2])
	}
	if evs[4].PC != 3 || evs[4].Addr != 1<<20 {
		t.Errorf("load: %+v", evs[4])
	}
	if evs[5].Lat != LatMul || evs[9].Lat != LatDiv || evs[3].Lat != Lat1 {
		t.Errorf("lat classes: %v %v %v", evs[3].Lat, evs[5].Lat, evs[9].Lat)
	}
	if !evs[7].Valid || evs[8].Valid || evs[8].Addr != -12345 {
		t.Errorf("prefetch flags: %+v %+v", evs[7], evs[8])
	}
	if !evs[10].Conditional || evs[11].Conditional {
		t.Errorf("branch flags: %+v %+v", evs[10], evs[11])
	}
}

// TestTruncationAndCorruption pins the degradation contract: any
// truncation or bit flip yields a clean ErrCorrupt from Decode (the
// CRC guards the whole envelope), never partial statistics.
func TestTruncationAndCorruption(t *testing.T) {
	enc := sample().Encode()

	for _, n := range []int{0, 1, 4, len(magic), len(magic) + 1, len(enc) / 2, len(enc) - 1} {
		if _, err := Decode(enc[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
	for _, pos := range []int{0, len(magic), len(magic) + 1, len(enc) / 2, len(enc) - 5, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0x40
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flipped byte %d: err = %v, want ErrCorrupt", pos, err)
		}
	}
	if _, err := Decode(append(append([]byte(nil), enc...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Error("trailing garbage not detected")
	}

	// Footers that pass the CRC but overstate their counts: replayers
	// size arrays from them, so Decode must bound them by the payload.
	w := NewWriter()
	w.Op(Lat1, nil)
	w.Finish()
	for _, c := range []struct {
		name           string
		events, values uint64
	}{
		{"events beyond the payload", 1 << 60, 1},
		{"values beyond the events", 2, 3},
	} {
		tr := w.Close(Meta{}, Summary{})
		tr.NumEvents, tr.NumValues = c.events, c.values
		if _, err := Decode(tr.Encode()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("footer with %s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
}

// TestVersionMismatch: a future-format trace is rejected cleanly.
func TestVersionMismatch(t *testing.T) {
	enc := sample().Encode()
	// The version uvarint sits right after the magic; FormatVersion is
	// small, so it is one byte. Patch it and re-seal the CRC.
	bad := append([]byte(nil), enc...)
	bad[len(magic)] = FormatVersion + 1
	body := bad[:len(bad)-4]
	patched := binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
	_, err := Decode(patched)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("err = %v, want format-version ErrCorrupt", err)
	}
}

// TestBadDependency: a dependency pointing past the values produced so
// far is corruption, caught during iteration.
func TestBadDependency(t *testing.T) {
	w := NewWriter()
	w.Op(Lat1, nil)
	tr := w.Close(Meta{}, Summary{})
	// Hand-craft a branch depending on value 5 of a 1-value stream.
	tr.events = append(tr.events, tagCBr, 1, 6) // delta 6 > 1 value
	tr.NumEvents += 1
	r := tr.Events()
	var ev Event
	for r.Next(&ev) {
	}
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestParseText covers the importer grammar and its error cases.
func TestParseText(t *testing.T) {
	const src = `# comment, then a blank line

17 0x1000 4 L
17 4100 4 S
3 0x2000 8 P
`
	tr, err := ParseText(strings.NewReader(src), "ext")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if tr.Meta.Workload != "ext" || tr.Meta.Variant != "imported" {
		t.Errorf("meta: %+v", tr.Meta)
	}
	s := tr.Summary
	if s.Loads != 1 || s.Stores != 1 || s.Prefetches != 1 || s.Executed != 3 || len(s.OpCounts) != 0 {
		t.Errorf("summary: %+v", s)
	}
	var evs []Event
	r := tr.Events()
	for {
		var e Event
		if !r.Next(&e) {
			break
		}
		evs = append(evs, e)
	}
	if r.Err() != nil {
		t.Fatalf("iterate: %v", r.Err())
	}
	if len(evs) != 4 { // 3 accesses + finish
		t.Fatalf("%d events", len(evs))
	}
	if evs[0].Kind != KindLoad || evs[0].PC != 17 || evs[0].Addr != 0x1000 || len(evs[0].Deps) != 0 {
		t.Errorf("load: %+v", evs[0])
	}
	if evs[1].Kind != KindStore || evs[1].Addr != 4100 {
		t.Errorf("store: %+v", evs[1])
	}
	if evs[2].Kind != KindPrefetch || !evs[2].Valid {
		t.Errorf("prefetch: %+v", evs[2])
	}
	if evs[3].Kind != KindFinish {
		t.Errorf("tail: %+v", evs[3])
	}

	// Imported traces round-trip like recorded ones.
	if got, err := Decode(tr.Encode()); err != nil || !Equal(tr, got) {
		t.Fatalf("round-trip: %v", err)
	}

	for _, bad := range []string{
		"",              // empty
		"1 2 3",         // too few fields
		"1 2 3 4 5",     // too many
		"x 0x1000 4 L",  // bad pc
		"1 zzz 4 L",     // bad addr
		"1 0x1000 q L",  // bad size
		"1 0x1000 4 X",  // bad kind
		"-1 0x1000 4 L", // negative pc
	} {
		if _, err := ParseText(strings.NewReader(bad), "bad"); err == nil {
			t.Errorf("ParseText(%q) accepted", bad)
		}
	}
}
