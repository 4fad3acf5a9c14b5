package interp

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/hwpf"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// call is one timing call made on a core model: its arguments and what
// the model returned.
type call struct {
	method string
	pc     int
	addr   int64
	ready  float64
	lat    int64
	flag   bool // Prefetch: valid; Branch: conditional
	ret    float64
}

// callLog decorates a real core model, logging every call that drives
// its timing.
type callLog struct {
	sim.CoreModel
	calls []call
}

func (l *callLog) log(c call) float64 {
	l.calls = append(l.calls, c)
	return c.ret
}

func (l *callLog) Op(ready float64, lat int64) float64 {
	return l.log(call{method: "op", ready: ready, lat: lat, ret: l.CoreModel.Op(ready, lat)})
}

func (l *callLog) Load(pc int, addr int64, ready float64) float64 {
	return l.log(call{method: "load", pc: pc, addr: addr, ready: ready, ret: l.CoreModel.Load(pc, addr, ready)})
}

func (l *callLog) Store(pc int, addr int64, ready float64) float64 {
	return l.log(call{method: "store", pc: pc, addr: addr, ready: ready, ret: l.CoreModel.Store(pc, addr, ready)})
}

func (l *callLog) Prefetch(pc int, addr int64, ready float64, valid bool) float64 {
	return l.log(call{method: "prefetch", pc: pc, addr: addr, ready: ready, flag: valid,
		ret: l.CoreModel.Prefetch(pc, addr, ready, valid)})
}

func (l *callLog) Branch(ready float64, conditional bool) float64 {
	return l.log(call{method: "branch", ready: ready, flag: conditional, ret: l.CoreModel.Branch(ready, conditional)})
}

func (l *callLog) Finish() float64 {
	return l.log(call{method: "finish", ret: l.CoreModel.Finish()})
}

func (l *callLog) Reset() {
	l.log(call{method: "reset"})
	l.CoreModel.Reset()
}

// referenceWalk retimes tr the plain way, straight off a trace.Reader:
// each event makes its core call, with readiness the latest completion
// among its dependencies and latency classes resolved against the
// machine with zero meaning one. Alloc and Poke events rebuild a memory
// replica when the machine's prefetcher peeks.
func referenceWalk(t *testing.T, tr *trace.Trace, c sim.CoreModel) {
	t.Helper()
	c.Reset()
	var mem *Memory
	if _, ok := c.Hierarchy().Prefetcher().(hwpf.PeekSetter); ok {
		mem = NewMemory()
		c.Hierarchy().SetPeek(mem.Peek)
	}
	cfg := c.Config()
	widths := map[int]ir.Type{1: ir.I8, 2: ir.I16, 4: ir.I32, 8: ir.I64}
	var values []float64
	r := tr.Events()
	var ev trace.Event
	for r.Next(&ev) {
		var ready float64
		for _, d := range ev.Deps {
			if values[d] > ready {
				ready = values[d]
			}
		}
		switch ev.Kind {
		case trace.KindOp:
			lat := map[trace.LatClass]int64{trace.Lat1: 1, trace.LatMul: cfg.MulLatency, trace.LatDiv: cfg.DivLatency}[ev.Lat]
			if lat == 0 {
				lat = 1
			}
			values = append(values, c.Op(ready, lat))
		case trace.KindLoad:
			values = append(values, c.Load(ev.PC, ev.Addr, ready))
		case trace.KindStore:
			c.Store(ev.PC, ev.Addr, ready)
		case trace.KindPrefetch:
			c.Prefetch(ev.PC, ev.Addr, ready, ev.Valid)
		case trace.KindBranch:
			c.Branch(ready, ev.Conditional)
		case trace.KindFinish:
			c.Finish()
		case trace.KindAlloc:
			if mem != nil {
				if _, err := mem.Alloc(ev.Size); err != nil {
					t.Fatal(err)
				}
			}
		case trace.KindPoke:
			if mem != nil {
				if err := mem.Store(ev.Addr, ev.Val, widths[ev.Width]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// synthEvents covers every event kind and aux value, with dependency
// sets from empty to well past the image header's escape.
var synthEvents = []struct {
	kind trace.Kind
	aux  int // Op: LatClass; Prefetch: valid; Branch: conditional; Poke: width
	deps int
}{
	{trace.KindPoke, 1, 0},
	{trace.KindPoke, 2, 0},
	{trace.KindPoke, 4, 0},
	{trace.KindPoke, 8, 0},
	{trace.KindOp, int(trace.Lat1), 0},
	{trace.KindOp, int(trace.LatMul), 1},
	{trace.KindOp, int(trace.LatDiv), 2},
	{trace.KindOp, int(trace.Lat1), 3},
	{trace.KindOp, int(trace.LatMul), 4},
	{trace.KindOp, int(trace.LatDiv), 5},
	{trace.KindOp, int(trace.Lat1), 6},
	{trace.KindOp, int(trace.Lat1), 7},
	{trace.KindOp, int(trace.LatMul), 8},
	{trace.KindOp, int(trace.Lat1), 12},
	{trace.KindLoad, 0, 0},
	{trace.KindLoad, 0, 1},
	{trace.KindLoad, 0, 7},
	{trace.KindStore, 0, 2},
	{trace.KindStore, 0, 9},
	{trace.KindPrefetch, 1, 1},
	{trace.KindPrefetch, 0, 0},
	{trace.KindPrefetch, 1, 10},
	{trace.KindBranch, 1, 1},
	{trace.KindBranch, 0, 0},
	{trace.KindBranch, 1, 7},
}

// synthTrace writes synthEvents rounds times between an Alloc and a
// Finish. Accesses stride through the allocation and dependencies
// reach back over recent values.
func synthTrace(rounds int) *trace.Trace {
	const size = 1 << 16
	w := trace.NewWriter()
	w.Alloc(size)
	var vals []int64
	for r := 0; r < rounds; r++ {
		for pc, e := range synthEvents {
			addr := memBase + int64(r*256+pc*8)%size
			deps := make([]int64, 0, e.deps)
			for j := 0; j < e.deps && len(vals) > 0; j++ {
				deps = append(deps, vals[len(vals)-1-(j*3)%len(vals)])
			}
			switch e.kind {
			case trace.KindOp:
				vals = append(vals, w.Op(trace.LatClass(e.aux), deps))
			case trace.KindLoad:
				vals = append(vals, w.Load(pc, addr, deps))
			case trace.KindStore:
				w.Store(pc, addr, deps)
			case trace.KindPrefetch:
				w.Prefetch(pc, addr, e.aux != 0, deps)
			case trace.KindBranch:
				w.Branch(e.aux != 0, deps)
			case trace.KindPoke:
				w.Poke(addr, e.aux, int64(r*7-pc)<<(4*e.aux))
			}
		}
	}
	w.Finish()
	return w.Close(trace.Meta{Workload: "synth"}, trace.Summary{})
}

// TestImageReplayMatchesReader pins the compact image against the
// stream it was decoded from: on every core model, with stream and
// value-peeking prefetchers and a zero latency to clamp, Image.Replay
// makes exactly the core calls, with the same arguments, that a walk
// of the trace.Reader makes.
func TestImageReplayMatchesReader(t *testing.T) {
	tr := synthTrace(64)
	im, err := NewImage(tr)
	if err != nil {
		t.Fatalf("image: %v", err)
	}
	for _, c := range []struct {
		core, hwpf string
		mul, div   int64
	}{
		{sim.CoreInterval, "stride", 3, 20},
		{sim.CoreOoO, "nextline", 0, 31},
		{sim.CoreInOrder, "ghb", 4, 0},
		{sim.CoreInterval, "imp", 3, 20},
		{sim.CoreInOrder, "imp", 5, 31},
	} {
		cfg := sim.DefaultConfig()
		cfg.Core, cfg.HWPrefetcher = c.core, c.hwpf
		cfg.MulLatency, cfg.DivLatency = c.mul, c.div
		got := &callLog{CoreModel: sim.NewCoreModel(cfg)}
		if _, err := im.Replay(got); err != nil {
			t.Fatalf("%s/%s: replay: %v", c.core, c.hwpf, err)
		}
		want := &callLog{CoreModel: sim.NewCoreModel(cfg)}
		referenceWalk(t, tr, want)
		if len(got.calls) != len(want.calls) {
			t.Fatalf("%s/%s: %d calls, want %d", c.core, c.hwpf, len(got.calls), len(want.calls))
		}
		for i := range want.calls {
			if got.calls[i] != want.calls[i] {
				t.Fatalf("%s/%s: call %d:\n got %+v\nwant %+v", c.core, c.hwpf, i, got.calls[i], want.calls[i])
			}
		}
	}
}

// TestImageLayout pins the image's storage: one header byte per event,
// operands only for the events that carry them, and every array sized
// exactly to what the stream holds.
func TestImageLayout(t *testing.T) {
	tr := synthTrace(3)
	im, err := NewImage(tr)
	if err != nil {
		t.Fatalf("image: %v", err)
	}
	var mem, deps int
	var allocs []int64
	var pokes []poke
	r := tr.Events()
	var ev trace.Event
	for r.Next(&ev) {
		switch ev.Kind {
		case trace.KindLoad, trace.KindStore, trace.KindPrefetch:
			mem++
		case trace.KindAlloc:
			allocs = append(allocs, ev.Size)
		case trace.KindPoke:
			pokes = append(pokes, poke{ev.Addr, ev.Val})
		}
		deps += len(ev.Deps)
		if len(ev.Deps) >= depEscape {
			deps++ // the escaped count
		}
	}
	for _, c := range []struct {
		name      string
		len, want int
		cap       int
	}{
		{"hdr", len(im.hdr), int(tr.NumEvents), cap(im.hdr)},
		{"deps", len(im.deps), deps, cap(im.deps)},
		{"pc", len(im.pc), mem, cap(im.pc)},
		{"addr", len(im.addr), mem, cap(im.addr)},
		{"allocs", len(im.allocs), len(allocs), cap(im.allocs)},
		{"pokes", len(im.pokes), len(pokes), cap(im.pokes)},
	} {
		if c.len != c.want || c.cap != c.want {
			t.Errorf("%s: len %d cap %d, want %d", c.name, c.len, c.cap, c.want)
		}
	}
	if !slices.Equal(im.allocs, allocs) || !slices.Equal(im.pokes, pokes) {
		t.Errorf("allocs/pokes differ from the stream:\n got %v %v\nwant %v %v", im.allocs, im.pokes, allocs, pokes)
	}
	for i, e := range synthEvents {
		if e.kind == trace.KindPoke && 1<<(im.hdr[1+i]>>auxShift&auxMask) != e.aux {
			t.Errorf("poke %d: header width %d, want %d", i, 1<<(im.hdr[1+i]>>auxShift&auxMask), e.aux)
		}
	}
}

// FuzzImage feeds arbitrary traces through the replay path — Decode,
// NewImage, then Replay on a machine whose prefetcher does not peek —
// which must return an error or statistics and never panic. Inputs are
// traces without their CRC trailer: the target seals each one, so that
// mutations reach the footer and the event stream instead of stopping
// at the checksum.
func FuzzImage(f *testing.F) {
	recorded, _ := recordKernel(f, benchIndirectSrc, "kernel", sim.DefaultConfig(), 8)
	for _, tr := range []*trace.Trace{synthTrace(1), recorded} {
		enc := tr.Encode()
		f.Add(enc[:len(enc)-4])
	}
	cfg := sim.DefaultConfig()
	cfg.HWPrefetcher = "stride"
	c := sim.NewCoreModel(cfg)
	f.Fuzz(func(t *testing.T, body []byte) {
		tr, err := trace.Decode(binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
		if err != nil {
			return
		}
		im, err := NewImage(tr)
		if err != nil {
			return
		}
		if _, err := im.Replay(c); err != nil {
			t.Fatalf("replay of a decoded image failed: %v", err)
		}
	})
}
