package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func traceReq() sweep.Request {
	return sweep.Request{
		Workload: workloads.IS(1<<8, 1<<8),
		System:   uarch.Haswell(),
		Variant:  core.VariantAuto,
		Options:  core.Options{Hoist: true},
		Exec:     core.ExecReplay,
	}
}

func recordReq(t *testing.T, req sweep.Request) *trace.Trace {
	t.Helper()
	tr, _, err := core.NewContext().Record(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceRoundTrip: PutTrace then GetTrace yields byte-identical
// trace content, and the trace hit/miss/put counters track it.
func TestTraceRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := traceReq()

	if _, ok := s.GetTrace(req); ok {
		t.Fatal("empty store hit a trace")
	}
	tr := recordReq(t, req)
	if err := s.PutTrace(req, tr); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetTrace(req)
	if !ok {
		t.Fatal("trace missing after PutTrace")
	}
	if !trace.Equal(tr, got) {
		t.Fatal("round-tripped trace is not byte-identical")
	}

	st := s.Stats()
	if st.TraceHits != 1 || st.TraceMisses != 1 || st.TracePuts != 1 {
		t.Errorf("trace counters = %d/%d/%d hits/misses/puts, want 1/1/1",
			st.TraceHits, st.TraceMisses, st.TracePuts)
	}
}

// TestTraceKeyIgnoresSystemAndExec: the trace key is the functional
// coordinate — identical across machines, prefetcher models and
// execution modes, distinct across workload/params/variant/options.
func TestTraceKeyIgnoresSystemAndExec(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := traceReq()
	key := s.TraceKey(base)

	for _, cfg := range uarch.All() {
		req := base
		req.System = cfg
		if s.TraceKey(req) != key {
			t.Errorf("trace key varies with system %s", cfg.Name)
		}
	}
	imp := base
	imp.System = uarch.WithHWPrefetcher(base.System, "imp")
	if s.TraceKey(imp) != key {
		t.Error("trace key varies with the hardware prefetcher")
	}
	direct := base
	direct.Exec = core.ExecDirect
	if s.TraceKey(direct) != key {
		t.Error("trace key varies with the execution mode")
	}

	for name, mut := range map[string]func(*sweep.Request){
		"workload": func(r *sweep.Request) { r.Workload = workloads.IS(1<<9, 1<<8) },
		"variant":  func(r *sweep.Request) { r.Variant = core.VariantPlain },
		"options":  func(r *sweep.Request) { r.Options.Hoist = false },
	} {
		req := base
		mut(&req)
		if s.TraceKey(req) == key {
			t.Errorf("trace key insensitive to %s", name)
		}
	}

	// And the trace key space never collides with the result key space.
	if s.TraceKey(base) == s.Key(base) {
		t.Error("trace key collides with the result key for the same request")
	}
}

// TestTraceFormatVersionBumpInvalidates mirrors
// TestStatsVersionBumpInvalidatesWarmV1 for the trace salt: a trace
// persisted under an older trace.FormatVersion salt must miss cleanly
// under the current one, without disturbing result entries or the old
// objects, and independently of the result salt.
func TestTraceFormatVersionBumpInvalidates(t *testing.T) {
	const v0Salt = "trace-v0"
	if DefaultTraceSalt() == v0Salt {
		t.Fatalf("DefaultTraceSalt() = %q; bump trace.FormatVersion past 0", v0Salt)
	}

	dir := t.TempDir()
	req := traceReq()
	tr := recordReq(t, req)
	res, err := core.Run(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		t.Fatal(err)
	}

	old, err := OpenTraceSalted(dir, DefaultSalt(), v0Salt)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.PutTrace(req, tr); err != nil {
		t.Fatal(err)
	}
	if err := old.Put(req, res); err != nil {
		t.Fatal(err)
	}
	if _, ok := old.GetTrace(req); !ok {
		t.Fatal("old-salt store does not hit its own trace")
	}

	// Same directory at the current trace format: the old trace is
	// invisible (the group re-records), but the result entries — salted
	// independently by sim.StatsVersion — still hit.
	cur, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cur.TraceSalt() != DefaultTraceSalt() {
		t.Fatalf("Open trace salt = %q, want %q", cur.TraceSalt(), DefaultTraceSalt())
	}
	if _, ok := cur.GetTrace(req); ok {
		t.Fatalf("trace-v0 object still hits under %s", DefaultTraceSalt())
	}
	if _, ok := cur.Get(req); !ok {
		t.Error("result entry lost across a trace-format bump")
	}

	// Keys moved, objects stayed: reopening at the old salt still hits.
	back, err := OpenTraceSalted(dir, DefaultSalt(), v0Salt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.GetTrace(req); !ok {
		t.Fatal("trace-v0 object lost after opening at the current format")
	}
}

// TestCorruptTraceIsAMiss: damage anywhere in a persisted trace object
// (trace envelope CRC catches it) degrades to a clean miss.
func TestCorruptTraceIsAMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := traceReq()
	tr := recordReq(t, req)
	if err := s.PutTrace(req, tr); err != nil {
		t.Fatal(err)
	}

	path := s.tracePath(s.TraceKey(req))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetTrace(req); ok {
		t.Fatal("corrupt trace object served as a hit")
	}

	// Truncation, likewise.
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetTrace(req); ok {
		t.Fatal("truncated trace object served as a hit")
	}
}

// TestStoreBackedReplaySweep wires the real store into a replay sweep:
// a cold sweep persists one trace per group; wiping the result log but
// keeping the traces lets the next sweep replay everything without
// re-recording.
func TestStoreBackedReplaySweep(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := sweep.Grid{
		Workloads: []*workloads.Workload{workloads.IS(1<<8, 1<<8)},
		Systems:   uarch.All()[:2],
		Variants:  []core.Variant{core.VariantPlain, core.VariantAuto},
		Execs:     []core.ExecMode{core.ExecReplay},
	}
	cold, err := g.RunWith(sweep.Runner{Jobs: 2, Cache: s})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TracePuts != 2 {
		t.Errorf("cold sweep persisted %d traces, want 2", st.TracePuts)
	}

	// A fresh store over the same directory with the results gone: every
	// cell recomputes as a replay of the persisted traces.
	if err := os.Remove(filepath.Join(dir, "results.jsonl")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := g.RunWith(sweep.Runner{Jobs: 2, Cache: s2})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.TraceHits != 2 || st.TracePuts != 0 {
		t.Errorf("trace-warm sweep: %d hits / %d puts, want 2 / 0", st.TraceHits, st.TracePuts)
	}
	for i := range cold.Outcomes {
		c, w := cold.Outcomes[i].Result, warm.Outcomes[i].Result
		if *c != *w {
			t.Errorf("cell %d differs between cold and trace-warm store sweeps", i)
		}
	}
}
