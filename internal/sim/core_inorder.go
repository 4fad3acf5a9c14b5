package sim

// inOrderCore is the cheap stall-on-use model at the simple end of the
// core axis: instructions issue strictly in order at IssueWidth per
// cycle, and issue stalls until the issuing instruction's operands are
// ready — a dependent use after a missing load serialises the loop,
// which is exactly why the paper's in-order machines (A53, Xeon Phi)
// gain 2-8x from software prefetching (§6.1). No reorder window is
// modelled at all; what little overlap exists comes from accesses that
// produce no value (stores, prefetches) draining through the
// hierarchy's MSHRs while issue continues.
//
// The model ignores Config.OutOfOrder: selecting it makes any machine
// in order. It is the interval model's in-order half with the
// completion-time window check removed — one comparison cheaper per
// instruction, and honest about what a scoreboarded in-order pipeline
// actually does.
type inOrderCore struct{ pipeline }

func newInOrderCore(cfg *Config) *inOrderCore { return &inOrderCore{newPipeline(cfg)} }

// Model returns the registry name.
func (c *inOrderCore) Model() string { return CoreInOrder }

// issueAt reserves an issue slot, stalling on the operands first — the
// stall-on-use rule that defines the model.
func (c *inOrderCore) issueAt(opsReady float64) float64 {
	if opsReady > c.clock {
		c.clock = opsReady
	}
	c.clock += c.issueInt
	c.stats.Instructions++
	return c.clock
}

// Op executes a simple ALU instruction and returns the time its result
// is ready.
func (c *inOrderCore) Op(opsReady float64, latency int64) float64 {
	return c.issueAt(opsReady) + float64(latency)
}

// Load issues a demand load; issue already waited for the operands, so
// the access starts at the issue slot.
func (c *inOrderCore) Load(pc int, addr int64, opsReady float64) float64 {
	issue := c.issueAt(opsReady)
	return c.hier.Access(AccessLoad, pc, addr, issue)
}

// Store issues a store; the core does not stall on its completion
// (store buffer), but the access consumes memory-system resources.
func (c *inOrderCore) Store(pc int, addr int64, opsReady float64) float64 {
	issue := c.issueAt(opsReady)
	c.hier.Access(AccessStore, pc, addr, issue)
	return issue
}

// Prefetch issues a software prefetch: one issue slot, a memory access,
// no stall. valid=false drops the access (prefetches never fault).
func (c *inOrderCore) Prefetch(pc int, addr int64, opsReady float64, valid bool) float64 {
	issue := c.issueAt(opsReady)
	c.stats.Prefetches++
	if valid {
		c.hier.Access(AccessPrefetch, pc, addr, issue)
	}
	return issue
}

// Branch issues a (conditional) branch, restarting the pipeline at the
// configured deterministic mispredict rate. Issue waited for the
// operands, so the branch resolves at its issue slot.
func (c *inOrderCore) Branch(opsReady float64, conditional bool) float64 {
	issue := c.issueAt(opsReady)
	if conditional {
		c.branch(issue, opsReady)
	}
	return issue
}
