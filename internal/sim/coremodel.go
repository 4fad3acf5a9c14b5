package sim

import "fmt"

// Core-model names. Like the hardware-prefetcher axis (internal/hwpf),
// the CPU core is a pluggable timing model selected by name through
// Config.Core; these constants are the registry.
const (
	// CoreInterval is the incumbent issue-interval model: a single
	// approximation covering both pipeline styles, switched by
	// Config.OutOfOrder (stall-on-use when clear, a completion-time
	// reorder window when set). It is the legacy model every result
	// before the core axis existed was produced by.
	CoreInterval = "interval"
	// CoreOoO models an out-of-order core at the retirement level:
	// in-order dispatch and retirement around a ROB, with execution
	// decoupled from both — independent misses overlap up to the MSHR
	// limit, bounded by ROB occupancy. Ignores Config.OutOfOrder.
	CoreOoO = "ooo"
	// CoreInOrder is the cheap stall-on-use model at the other end:
	// issue blocks until the issuing instruction's operands are ready,
	// and no reorder window is modelled at all. Ignores
	// Config.OutOfOrder.
	CoreInOrder = "inorder"
)

// CoreModels lists the registered core models in presentation order.
func CoreModels() []string { return []string{CoreInterval, CoreOoO, CoreInOrder} }

// KnownCoreModel reports whether name is a registered core model.
func KnownCoreModel(name string) bool {
	for _, m := range CoreModels() {
		if m == name {
			return true
		}
	}
	return false
}

// DescribeCoreModel returns a one-line description of a core model for
// -list output and GET /meta.
func DescribeCoreModel(name string) string {
	switch name {
	case CoreInterval:
		return "issue-interval approximation; in-order vs out-of-order behaviour follows the machine's OutOfOrder flag (legacy model)"
	case CoreOoO:
		return "out-of-order: in-order dispatch/retirement around the ROB, execution decoupled — misses overlap up to the MSHR limit within the window"
	case CoreInOrder:
		return "in-order stall-on-use: issue blocks until the issuing instruction's operands are ready; no reorder window"
	}
	return ""
}

// CoreStats is the instruction-stream statistics every core model
// accumulates, snapshotted through CoreModel.CoreStats.
type CoreStats struct {
	Instructions uint64
	Prefetches   uint64
	Branches     uint64
	Mispredicts  uint64
}

// CoreModel is the timing model of one CPU core: it consumes the
// dynamic instruction stream (driven by the interpreter or a trace
// replay) and advances a cycle clock. Implementations own their memory
// hierarchy and are reset in place between runs (storage-preserving,
// like every sim Reset path).
//
// The contract the callers rely on:
//
//   - every method with an opsReady argument receives the latest
//     readiness time of the instruction's operands and returns the time
//     the instruction's result is available (issue time for
//     stores/prefetches/branches, which produce no value);
//   - Loads go through Hierarchy().Access and return its completion;
//     stores and software prefetches access the hierarchy without
//     stalling the core;
//   - Finish drains outstanding memory-system work into the clock;
//   - the model is deterministic: equal call sequences produce equal
//     clocks and statistics.
type CoreModel interface {
	// Model returns the registry name of the model.
	Model() string
	// Config returns the machine configuration.
	Config() *Config
	// Hierarchy returns the core's memory system.
	Hierarchy() *Hierarchy
	// Cycles returns the current clock value.
	Cycles() float64
	// CoreStats snapshots the instruction-stream statistics.
	CoreStats() CoreStats

	Op(opsReady float64, latency int64) float64
	Load(pc int, addr int64, opsReady float64) float64
	Store(pc int, addr int64, opsReady float64) float64
	Prefetch(pc int, addr int64, opsReady float64, valid bool) float64
	Branch(opsReady float64, conditional bool) float64
	Finish() float64
	Reset()
}

// NewCoreModel builds the core model Config.Core selects (empty =
// interval, the legacy resolution) over a fresh memory hierarchy. It
// is the only way to build a core.
func NewCoreModel(cfg *Config) CoreModel {
	switch name := cfg.CoreName(); name {
	case CoreInterval:
		return newIntervalCore(cfg)
	case CoreOoO:
		return newOoOCore(cfg)
	case CoreInOrder:
		return newInOrderCore(cfg)
	default:
		// Validate vets the name; unreachable from vetted configs.
		panic(fmt.Sprintf("sim: unknown core model %q (have %v)", name, CoreModels()))
	}
}

// pipeline is what every core model shares: the machine and its memory
// hierarchy, the clock and issue interval, the instruction-stream
// statistics, the deterministic branch predictor, the drain and the
// cold reset. A model embeds it and adds only its own issue and
// retirement rules.
type pipeline struct {
	cfg  *Config
	hier *Hierarchy

	clock    float64
	issueInt float64 // 1/IssueWidth, precomputed off the issue path

	// branchCount drives the deterministic "mispredict every 1/rate
	// branches" predictor, keeping runs reproducible.
	branchCount uint64
	stats       CoreStats
}

func newPipeline(cfg *Config) pipeline {
	return pipeline{cfg: cfg, hier: NewHierarchy(cfg), issueInt: 1 / float64(cfg.IssueWidth)}
}

// Config returns the machine configuration.
func (p *pipeline) Config() *Config { return p.cfg }

// Hierarchy returns the core's memory system.
func (p *pipeline) Hierarchy() *Hierarchy { return p.hier }

// Cycles returns the current clock value.
func (p *pipeline) Cycles() float64 { return p.clock }

// CoreStats snapshots the instruction-stream statistics.
func (p *pipeline) CoreStats() CoreStats { return p.stats }

// branch counts a conditional branch issued at issue, its operands
// ready at opsReady, and charges the mispredict penalty at the
// configured rate: the pipeline restarts after the branch resolves.
func (p *pipeline) branch(issue, opsReady float64) {
	p.stats.Branches++
	if p.cfg.MispredictRate > 0 {
		p.branchCount++
		interval := uint64(1 / p.cfg.MispredictRate)
		if interval > 0 && p.branchCount%interval == 0 {
			p.stats.Mispredicts++
			resolve := issue
			if opsReady > resolve {
				resolve = opsReady
			}
			p.clock = resolve + float64(p.cfg.MispredictPenalty)
		}
	}
}

// Finish waits for outstanding memory-system work and returns the final
// cycle count.
func (p *pipeline) Finish() float64 {
	if d := p.hier.Drain(); d > p.clock {
		p.clock = d
	}
	return p.clock
}

// Reset returns the pipeline and hierarchy to a cold state in place.
func (p *pipeline) Reset() {
	p.clock = 0
	p.branchCount = 0
	p.stats = CoreStats{}
	p.hier.Reset()
}
