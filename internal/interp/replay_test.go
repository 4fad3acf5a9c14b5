package interp

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// recordKernel runs the kernel once with recording attached (on cfg)
// and returns the sealed trace plus the direct run's stats.
func recordKernel(t testing.TB, src, fn string, cfg *sim.Config, n int64) (*trace.Trace, Stats) {
	t.Helper()
	mod := ir.MustParse(src)
	mach := New(mod, cfg)
	w := trace.NewWriter()
	mach.RecordTo(w)
	sum, err := mach.Run(fn, n)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	st := mach.Stats()
	oc := make([]uint64, ir.NumOps)
	copy(oc, st.OpCounts[:])
	return w.Close(trace.Meta{Workload: fn}, trace.Summary{
		Executed: st.Executed, OpCounts: oc,
		Loads: st.Loads, Stores: st.Stores, Prefetches: st.Prefetches,
		Checksum: sum,
	}), st
}

// hierSnapshot flattens the timing-side counters replay must reproduce.
type hierSnapshot struct {
	Stats
	L1Hits, L1Misses, DRAM, SWPF, HWPF, Walks uint64
	StallCycles                               float64
}

func snapshot(st Stats, c sim.CoreModel) hierSnapshot {
	h := c.Hierarchy()
	l1 := h.Caches()[0]
	return hierSnapshot{
		Stats:  st,
		L1Hits: l1.Hits, L1Misses: l1.Misses,
		DRAM: h.DRAMAccesses, SWPF: h.SWPrefetches, HWPF: h.HWPrefetches,
		Walks: h.TLBStats().Walks, StallCycles: h.LoadStallCycles,
	}
}

// directRun interprets the kernel on cfg without recording.
func directRun(t *testing.T, src, fn string, cfg *sim.Config, n int64) hierSnapshot {
	t.Helper()
	mach := New(ir.MustParse(src), cfg)
	if _, err := mach.Run(fn, n); err != nil {
		t.Fatalf("direct run: %v", err)
	}
	return snapshot(mach.Stats(), mach.Core)
}

// replayConfigs covers the behaviours replay must reproduce exactly:
// out-of-order and in-order cores (stall-on-use consumes the replayed
// dependency times), mul/div latency resolution, and a value-
// speculating hardware prefetcher (imp) exercising the memory replica.
func replayConfigs() []*sim.Config {
	ooo := sim.DefaultConfig()

	inorder := sim.DefaultConfig()
	inorder.Name = "generic-inorder"
	inorder.OutOfOrder = false
	inorder.IssueWidth = 2
	inorder.MulLatency = 5
	inorder.DivLatency = 31

	imp := sim.DefaultConfig()
	imp.Name = "generic-imp"
	imp.HWPrefetcher = "imp"

	return []*sim.Config{ooo, inorder, imp}
}

// TestReplayMatchesDirect is the core property of the record/replay
// split: a trace recorded once (on an arbitrary machine) replays on
// every configuration with statistics identical to a direct
// interpretation there — timing counters included, to the last bit.
func TestReplayMatchesDirect(t *testing.T) {
	const n = 1 << 10
	for _, src := range []struct{ name, src, fn string }{
		{"indirect", benchIndirectSrc, "kernel"},
		{"arith", benchArithSrc, "spin"},
	} {
		// Record on the first config; replay everywhere.
		tr, _ := recordKernel(t, src.src, src.fn, replayConfigs()[0], n)
		im, err := NewImage(tr)
		if err != nil {
			t.Fatalf("%s: image: %v", src.name, err)
		}
		for _, cfg := range replayConfigs() {
			want := directRun(t, src.src, src.fn, cfg, n)
			c := sim.NewCoreModel(cfg)
			st, err := im.Replay(c)
			if err != nil {
				t.Fatalf("%s on %s: replay: %v", src.name, cfg.Name, err)
			}
			if got := snapshot(st, c); got != want {
				t.Errorf("%s on %s:\n got %+v\nwant %+v", src.name, cfg.Name, got, want)
			}
		}
	}
}

// TestRecordingDoesNotPerturbRun: attaching the recorder changes no
// statistic of the run it observes.
func TestRecordingDoesNotPerturbRun(t *testing.T) {
	cfg := replayConfigs()[2] // imp: peeks observe recorded memory
	want := directRun(t, benchIndirectSrc, "kernel", cfg, 1<<10)
	mod := ir.MustParse(benchIndirectSrc)
	mach := New(mod, cfg)
	mach.RecordTo(trace.NewWriter())
	if _, err := mach.Run("kernel", 1<<10); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := snapshot(mach.Stats(), mach.Core); got != want {
		t.Errorf("recording perturbed the run:\n got %+v\nwant %+v", got, want)
	}
}

// TestRecordMachineIndependence pins the trace's defining property:
// the recorded bytes do not depend on the machine that recorded them.
func TestRecordMachineIndependence(t *testing.T) {
	var traces []*trace.Trace
	for _, cfg := range replayConfigs() {
		tr, _ := recordKernel(t, benchIndirectSrc, "kernel", cfg, 1<<10)
		traces = append(traces, tr)
	}
	for i := 1; i < len(traces); i++ {
		if !trace.Equal(traces[0], traces[i]) {
			t.Errorf("trace recorded on %s differs from %s",
				replayConfigs()[i].Name, replayConfigs()[0].Name)
		}
	}
}

// TestReplaySerializedRoundTrip: replaying a decoded serialization
// matches replaying the in-memory trace.
func TestReplaySerializedRoundTrip(t *testing.T) {
	cfg := sim.DefaultConfig()
	tr, _ := recordKernel(t, benchIndirectSrc, "kernel", cfg, 1<<10)
	decoded, err := trace.Decode(tr.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	im1, err1 := NewImage(tr)
	im2, err2 := NewImage(decoded)
	if err1 != nil || err2 != nil {
		t.Fatalf("image: %v / %v", err1, err2)
	}
	c1, c2 := sim.NewCoreModel(cfg), sim.NewCoreModel(cfg)
	st1, err1 := im1.Replay(c1)
	st2, err2 := im2.Replay(c2)
	if err1 != nil || err2 != nil {
		t.Fatalf("replay: %v / %v", err1, err2)
	}
	if snapshot(st1, c1) != snapshot(st2, c2) {
		t.Error("serialized replay differs from in-memory replay")
	}
}

// TestRunsCounter: the interp-invocation counter observes Run calls.
func TestRunsCounter(t *testing.T) {
	before := Runs()
	mach := New(ir.MustParse(benchArithSrc), sim.DefaultConfig())
	if _, err := mach.Run("spin", 8); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := Runs() - before; got != 1 {
		t.Errorf("Runs() advanced by %d, want 1", got)
	}
}
