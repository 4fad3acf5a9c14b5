// Package trace defines a compact, versioned record of the dynamic
// op/memory-access stream one kernel execution feeds the timing model —
// the functional half of the record/replay split.
//
// The interpreter's work divides cleanly in two: a *functional* phase
// (values, addresses, control flow, memory contents) that depends only
// on the kernel and its inputs, and a *timing* phase (the sim.CoreModel and
// sim.Hierarchy calls) that also depends on the machine configuration.
// A Trace captures the functional phase once, so the machine × hardware-
// prefetcher axes of an experiment grid can be retimed by replaying the
// event stream through the timing model without re-interpreting the
// kernel (internal/interp.Image.Replay).
//
// Machine independence is the load-bearing property: a trace recorded
// under any sim.Config is byte-for-byte identical to one recorded under
// any other. Two design points follow from it:
//
//   - Events carry *dependency sets* (indices of the value-producing
//     events their operands came from), never readiness timestamps —
//     timestamps are machine artifacts. Replay recomputes readiness as
//     the max completion time of the dependencies, exactly the
//     computation the interpreter performs over its SSA slots.
//   - ALU events carry a latency *class* (single-cycle, multiply,
//     divide), not a resolved cycle count: multiply/divide latencies
//     are per-machine Config fields, resolved at replay time with the
//     same zero-means-one clamp the interpreter's decoder applies.
//
// The stream also interleaves untimed Alloc/Poke events mirroring every
// simulated-memory mutation (kernel stores and host-side setup writes
// alike). Replay rebuilds a shadow copy of simulated memory from them —
// but only when the machine's hardware prefetcher speculates on memory
// values (hwpf.PeekSetter, the IMP model); stream-only models skip the
// replica entirely.
//
// See docs/trace.md for the byte-level format specification, the
// importer grammar (ParseText) and the amortization arithmetic.
package trace

import "fmt"

// FormatVersion identifies the trace encoding AND the recorded event
// semantics. Any change that alters the bytes a recording produces for
// some kernel — a new event kind, a different dependency rule, a
// prefetch-pass change that reorders the emitted stream — MUST bump
// this constant. It is the version salt of trace artifacts in
// internal/store (see store.TraceSalt), so bumping it cleanly
// invalidates every persisted trace while leaving result objects (keyed
// by sim.StatsVersion) untouched.
const FormatVersion = 1

// Kind classifies a decoded event.
type Kind uint8

// Event kinds. Op and Load are the value-producing kinds: each occupies
// the next slot in the dense value-index space that dependency sets
// reference. Alloc and Poke are untimed memory-replica events; all
// others map one-to-one onto sim.CoreModel calls.
const (
	KindOp Kind = iota
	KindLoad
	KindStore
	KindPrefetch
	KindBranch
	KindFinish
	KindAlloc
	KindPoke
)

func (k Kind) String() string {
	switch k {
	case KindOp:
		return "op"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindPrefetch:
		return "prefetch"
	case KindBranch:
		return "branch"
	case KindFinish:
		return "finish"
	case KindAlloc:
		return "alloc"
	case KindPoke:
		return "poke"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// LatClass is the machine-independent latency class of an Op event;
// replay resolves it against the target Config exactly like the
// interpreter's decoder does (zero configured cycles clamp to one).
type LatClass uint8

// Latency classes.
const (
	Lat1   LatClass = iota // fixed single-cycle ALU op
	LatMul                 // Config.MulLatency
	LatDiv                 // Config.DivLatency (divide and remainder)
)

// Event is one decoded trace event. Which fields are meaningful depends
// on Kind:
//
//	Op        Lat, Deps
//	Load      PC, Addr, Deps
//	Store     PC, Addr, Deps
//	Prefetch  PC, Addr, Valid, Deps
//	Branch    Conditional, Deps
//	Finish    —
//	Alloc     Size
//	Poke      Addr, Width, Val
type Event struct {
	Kind        Kind
	PC          int
	Addr        int64
	Size        int64 // Alloc: allocation bytes
	Val         int64 // Poke: value written
	Width       int   // Poke: write width in bytes (1, 2, 4 or 8)
	Lat         LatClass
	Valid       bool // Prefetch: target inside an allocation
	Conditional bool // Branch: conditional (mispredict-eligible)

	// Deps holds the value indices this event's operands came from, in
	// operand order. The slice is owned by the Reader and overwritten by
	// the next Next call.
	Deps []uint64
}

// Meta describes what was recorded — informational coordinates carried
// in the trace header. Replay does not interpret them beyond copying
// them into the Result.
type Meta struct {
	Workload string `json:"workload,omitempty"`
	Params   string `json:"params,omitempty"`
	Variant  string `json:"variant,omitempty"`
	Options  string `json:"options,omitempty"`
}

// Summary is the functional outcome of the recorded run, stored in the
// trace footer: the statistics a direct run computes in the interpreter
// and the validated workload checksum. Replay copies these into its
// Stats verbatim — they are machine-independent — and recomputes only
// the timing-side numbers from the core.
type Summary struct {
	Executed   uint64   // interpreted instructions (includes phis)
	OpCounts   []uint64 // per-opcode execution counts (ir.NumOps entries); empty for imported traces
	Loads      uint64
	Stores     uint64
	Prefetches uint64
	Checksum   int64 // workload checksum, validated against the reference at record time
}

// Trace is a fully recorded event stream plus its header and footer.
// The event payload stays in encoded form — replay decodes it on the
// fly via Events(), so holding a Trace costs its encoded size, not a
// per-event structure.
type Trace struct {
	Meta    Meta
	Summary Summary

	// NumEvents and NumValues are the footer's event counts: total
	// events, and value-producing (Op/Load) events. Readers verify the
	// stream against them.
	NumEvents uint64
	NumValues uint64

	events []byte
}

// EncodedEventBytes returns the size of the encoded event payload — the
// dominant component of a trace's footprint on disk and in memory.
func (t *Trace) EncodedEventBytes() int { return len(t.events) }
