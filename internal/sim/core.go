package sim

// intervalCore is the incumbent issue-interval core timing model —
// registry name "interval" (see coremodel.go for the pluggable-model
// axis). It consumes a dynamic instruction stream (driven by the
// interpreter) and advances a cycle clock.
//
// The model issues instructions in order at IssueWidth per cycle.
// Completion is tracked per instruction:
//
//   - out-of-order cores only stall issue when the reorder buffer is
//     full (the instruction ROBSize ago has not completed), so
//     independent cache misses overlap up to the MSHR limit — this is
//     the memory-level parallelism that makes software prefetching
//     less profitable on Haswell/A57 than on in-order cores (§6.1);
//   - in-order cores additionally stall issue until the operands of
//     the issuing instruction are ready (stall-on-use), so a dependent
//     use after a missing load serialises the loop — the reason the
//     A53 and Xeon Phi gain 2-8x from software prefetch.
//
// Software prefetches never produce a value, so they never stall the
// core; they occupy an issue slot and memory-system resources only.
type intervalCore struct {
	pipeline
	rob    []float64 // completion times of the last ROBSize instructions
	robPos int
}

func newIntervalCore(cfg *Config) *intervalCore {
	return &intervalCore{pipeline: newPipeline(cfg), rob: make([]float64, cfg.ROBSize)}
}

// Model returns the registry name.
func (c *intervalCore) Model() string { return CoreInterval }

// issueAt reserves an issue slot: the clock advances by the issue
// interval, waiting first for a free ROB entry and (on in-order cores)
// for the operands.
func (c *intervalCore) issueAt(opsReady float64) float64 {
	if oldest := c.rob[c.robPos]; oldest > c.clock {
		c.clock = oldest // ROB full: wait for the oldest to complete
	}
	if !c.cfg.OutOfOrder && opsReady > c.clock {
		c.clock = opsReady // stall-on-use
	}
	c.clock += c.issueInt
	c.stats.Instructions++
	return c.clock
}

func (c *intervalCore) retire(complete float64) {
	c.rob[c.robPos] = complete
	c.robPos++
	if c.robPos == len(c.rob) {
		c.robPos = 0
	}
}

// Op executes a simple ALU instruction with the given latency and
// returns the time its result is ready.
func (c *intervalCore) Op(opsReady float64, latency int64) float64 {
	issue := c.issueAt(opsReady)
	start := issue
	if opsReady > start {
		start = opsReady
	}
	complete := start + float64(latency)
	c.retire(complete)
	return complete
}

// Load issues a demand load of addr; the address operands become ready
// at opsReady. Returns the time the loaded value is available.
func (c *intervalCore) Load(pc int, addr int64, opsReady float64) float64 {
	issue := c.issueAt(opsReady)
	start := issue
	if opsReady > start {
		start = opsReady
	}
	complete := c.hier.Access(AccessLoad, pc, addr, start)
	c.retire(complete)
	return complete
}

// Store issues a store; the core does not stall on its completion
// (store buffer), but the access consumes memory-system resources.
func (c *intervalCore) Store(pc int, addr int64, opsReady float64) float64 {
	issue := c.issueAt(opsReady)
	start := issue
	if opsReady > start {
		start = opsReady
	}
	c.hier.Access(AccessStore, pc, addr, start)
	c.retire(issue)
	return issue
}

// Prefetch issues a software prefetch: one issue slot, a memory access,
// no stall. valid=false models a prefetch whose address fell outside
// any mapping — it is dropped (prefetches never fault).
func (c *intervalCore) Prefetch(pc int, addr int64, opsReady float64, valid bool) float64 {
	issue := c.issueAt(opsReady)
	c.stats.Prefetches++
	if valid {
		start := issue
		if opsReady > start {
			start = opsReady
		}
		c.hier.Access(AccessPrefetch, pc, addr, start)
	}
	c.retire(issue)
	return issue
}

// Branch issues a (conditional) branch, charging the mispredict penalty
// at the configured rate.
func (c *intervalCore) Branch(opsReady float64, conditional bool) float64 {
	issue := c.issueAt(opsReady)
	if conditional {
		c.branch(issue, opsReady)
	}
	c.retire(issue)
	return issue
}

// Reset returns the core and hierarchy to a cold state.
func (c *intervalCore) Reset() {
	clear(c.rob)
	c.robPos = 0
	c.pipeline.Reset()
}
