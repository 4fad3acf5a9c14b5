package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/interp"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// ExecMode selects how a cell's statistics are produced: by
// interpreting the kernel directly, or by replaying a recorded trace
// through the timing model. The two are byte-for-byte identical (the
// golden harness diffs them); replay amortizes interpretation across
// the machine × hwpf axes of a grid.
type ExecMode string

// Execution modes.
const (
	ExecDirect ExecMode = "direct"
	ExecReplay ExecMode = "replay"
)

// ExecModes lists the accepted execution modes in presentation order.
func ExecModes() []ExecMode { return []ExecMode{ExecDirect, ExecReplay} }

// ParseExecMode parses an -exec flag value ("" selects direct).
func ParseExecMode(s string) (ExecMode, error) {
	switch strings.TrimSpace(s) {
	case "", string(ExecDirect):
		return ExecDirect, nil
	case string(ExecReplay):
		return ExecReplay, nil
	}
	return "", fmt.Errorf("core: unknown exec mode %q (have direct, replay)", s)
}

// optionsMeta canonically encodes the option set for the trace header.
// Informational: store keys hash the Options struct itself.
func optionsMeta(o Options) string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(fmt.Sprintf("core: marshal options: %v", err)) // plain data; unreachable
	}
	return string(b)
}

// Record executes the requested variant of the workload on cfg with
// the trace recorder attached, returning the sealed trace alongside
// the run's own Result. The Result is exactly what Run would have
// produced (recording does not perturb the simulation), so a caller
// recording for a grid gets the recording configuration's cell for
// free. The trace itself is machine-independent: recording under any
// configuration yields identical bytes, which is why one trace serves
// every machine × hwpf cell of a (workload, variant) group.
func (cx *Context) Record(w *workloads.Workload, cfg *sim.Config, v Variant, o Options) (*trace.Trace, *Result, error) {
	tw := trace.NewWriter()
	res, err := cx.run(w, cfg, v, o, tw)
	if err != nil {
		return nil, nil, err
	}
	st := res.Stats
	oc := make([]uint64, len(st.OpCounts))
	copy(oc, st.OpCounts[:])
	t := tw.Close(
		trace.Meta{Workload: w.Name, Params: w.Params, Variant: string(v), Options: optionsMeta(o)},
		trace.Summary{
			Executed: st.Executed, OpCounts: oc,
			Loads: st.Loads, Stores: st.Stores, Prefetches: st.Prefetches,
			Checksum: res.Checksum,
		},
	)
	return t, res, nil
}

// ReplayImage retimes a predecoded trace on cfg, reusing the context's
// simulator for that configuration. The Result is byte-for-byte
// identical to Run of the same (workload, variant, options) on cfg —
// Pass excepted, which replay cannot reconstruct (it carries nil, like
// every store-served result). The Image may be shared across contexts
// and goroutines: replay only reads it.
func (cx *Context) ReplayImage(im *interp.Image, cfg *sim.Config) (*Result, error) {
	t := im.Trace()
	st, err := im.Replay(cx.core(cfg))
	cx.release(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: replay %s/%s on %s: %w", t.Meta.Workload, t.Meta.Variant, cfg.Name, err)
	}
	return assemble(t.Meta.Workload, cfg.Name, Variant(t.Meta.Variant), t.Summary.Checksum,
		st, cx.core(cfg).Hierarchy(), nil), nil
}
