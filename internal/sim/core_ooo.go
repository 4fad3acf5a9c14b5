package sim

// oooCore models an out-of-order core at the retirement level, one
// step more honest than the interval model's completion-time window:
//
//   - dispatch is in order at IssueWidth per cycle and stalls only when
//     the ROB is full — the entry allocated ROBSize instructions ago
//     has not yet retired;
//   - execution is decoupled from dispatch: an instruction starts when
//     its operands are ready, however far the dispatch clock has run
//     ahead, so independent cache misses overlap up to the hierarchy's
//     MSHR limit;
//   - retirement is in order: an instruction retires no earlier than
//     its predecessor, so one long-latency miss at the head of the ROB
//     holds every younger instruction's entry until it completes.
//
// The last rule is what the interval model lacks and the paper's §6.1
// analysis turns on: the reorder window bounds how many iterations
// ahead the core can run, so demand memory-level parallelism is
// min(window / iteration length, MSHRs) — modelled, not approximated
// by an issue constant. Software prefetches still help (they fetch
// beyond the window and never occupy it waiting on data), but the gain
// is the gap between window-limited MLP and full coverage, which is
// why Haswell's column is smaller than the in-order machines'.
//
// The model ignores Config.OutOfOrder: selecting it makes any machine
// out of order.
type oooCore struct {
	pipeline
	// rob holds the in-order retirement times of the last ROBSize
	// instructions; lastRetire enforces the in-order rule.
	rob        []float64
	robPos     int
	lastRetire float64
}

func newOoOCore(cfg *Config) *oooCore {
	return &oooCore{pipeline: newPipeline(cfg), rob: make([]float64, cfg.ROBSize)}
}

// Model returns the registry name.
func (c *oooCore) Model() string { return CoreOoO }

// Cycles returns the current clock value, covering the last retirement.
func (c *oooCore) Cycles() float64 {
	if c.lastRetire > c.clock {
		return c.lastRetire
	}
	return c.clock
}

// issueAt reserves a dispatch slot: the clock advances by the issue
// interval, waiting first for a free ROB entry. Operands never stall
// dispatch — that is the out-of-order-ness.
func (c *oooCore) issueAt() float64 {
	if oldest := c.rob[c.robPos]; oldest > c.clock {
		c.clock = oldest
	}
	c.clock += c.issueInt
	c.stats.Instructions++
	return c.clock
}

// retire records the instruction's in-order retirement: no earlier
// than completion, no earlier than the previous instruction.
func (c *oooCore) retire(complete float64) {
	if complete < c.lastRetire {
		complete = c.lastRetire
	}
	c.lastRetire = complete
	c.rob[c.robPos] = complete
	c.robPos++
	if c.robPos == len(c.rob) {
		c.robPos = 0
	}
}

// Op executes a simple ALU instruction and returns the time its result
// is ready.
func (c *oooCore) Op(opsReady float64, latency int64) float64 {
	issue := c.issueAt()
	start := issue
	if opsReady > start {
		start = opsReady
	}
	complete := start + float64(latency)
	c.retire(complete)
	return complete
}

// Load issues a demand load; it executes once dispatched and operands
// are ready, and occupies its ROB entry until the data returns.
func (c *oooCore) Load(pc int, addr int64, opsReady float64) float64 {
	issue := c.issueAt()
	start := issue
	if opsReady > start {
		start = opsReady
	}
	complete := c.hier.Access(AccessLoad, pc, addr, start)
	c.retire(complete)
	return complete
}

// Store issues a store; it retires at dispatch (store buffer) while the
// access drains through the memory system.
func (c *oooCore) Store(pc int, addr int64, opsReady float64) float64 {
	issue := c.issueAt()
	start := issue
	if opsReady > start {
		start = opsReady
	}
	c.hier.Access(AccessStore, pc, addr, start)
	c.retire(issue)
	return issue
}

// Prefetch issues a software prefetch: one dispatch slot, a memory
// access, no stall and no window occupancy beyond dispatch — the
// reason prefetches reach beyond the ROB's own memory-level
// parallelism. valid=false drops the access (prefetches never fault).
func (c *oooCore) Prefetch(pc int, addr int64, opsReady float64, valid bool) float64 {
	issue := c.issueAt()
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

// Branch issues a (conditional) branch, restarting the pipeline at the
// configured deterministic mispredict rate.
func (c *oooCore) Branch(opsReady float64, conditional bool) float64 {
	issue := c.issueAt()
	if conditional {
		c.branch(issue, opsReady)
	}
	c.retire(issue)
	return issue
}

// Finish waits for the last retirement and all outstanding memory-system
// work, returning the final cycle count.
func (c *oooCore) Finish() float64 {
	if c.lastRetire > c.clock {
		c.clock = c.lastRetire
	}
	return c.pipeline.Finish()
}

// Reset returns the core and hierarchy to a cold state in place.
func (c *oooCore) Reset() {
	clear(c.rob)
	c.robPos = 0
	c.lastRetire = 0
	c.pipeline.Reset()
}
