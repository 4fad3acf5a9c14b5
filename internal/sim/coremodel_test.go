package sim

import "testing"

// TestCoreModelRegistry: every registered name builds, reports itself,
// and validates; unknown names are rejected by Validate.
func TestCoreModelRegistry(t *testing.T) {
	for _, name := range CoreModels() {
		cfg := testConfig()
		cfg.Core = name
		if err := cfg.Validate(); err != nil {
			t.Fatalf("core=%s: %v", name, err)
		}
		c := NewCoreModel(cfg)
		if c.Model() != name {
			t.Errorf("core=%s reports Model()=%q", name, c.Model())
		}
		if DescribeCoreModel(name) == "" {
			t.Errorf("core=%s has no description", name)
		}
	}
	bad := testConfig()
	bad.Core = "tomasulo"
	if bad.Validate() == nil {
		t.Error("unknown core model accepted")
	}
}

// TestCoreNameLegacyResolution: an empty Core selects the interval
// model — the behaviour of every configuration written before the
// axis existed.
func TestCoreNameLegacyResolution(t *testing.T) {
	cfg := testConfig()
	if got := cfg.CoreName(); got != CoreInterval {
		t.Fatalf("empty Core resolves to %q, want %q", got, CoreInterval)
	}
	if m := NewCoreModel(cfg).Model(); m != CoreInterval {
		t.Fatalf("empty Core builds %q, want %q", m, CoreInterval)
	}
}

// chase runs a dependent pointer-chase of n loads (each load's address
// register depends on the previous load) and returns the cycle count.
func chase(c CoreModel, n int, stride int64) float64 {
	ready := 0.0
	for i := 0; i < n; i++ {
		ready = c.Load(1, int64(i)*stride, ready)
	}
	c.Finish()
	return c.Cycles()
}

// scan runs n independent loads (no inter-load dependencies) and
// returns the cycle count.
func scan(c CoreModel, n int, stride int64) float64 {
	for i := 0; i < n; i++ {
		c.Load(1, int64(i)*stride, 0)
	}
	c.Finish()
	return c.Cycles()
}

// scanUse runs n independent loads, each immediately consumed by an
// ALU op — the pattern that separates stall-on-use (each use waits out
// the miss) from an out-of-order window (uses wait, dispatch does not).
func scanUse(c CoreModel, n int, stride int64) float64 {
	for i := 0; i < n; i++ {
		v := c.Load(1, int64(i)*stride, 0)
		c.Op(v, 1)
	}
	c.Finish()
	return c.Cycles()
}

// TestOoOCoreOverlapsIndependentMisses: the ooo model must overlap
// independent cache misses (far faster than serial), while a dependent
// chain of the same misses cannot overlap at all.
func TestOoOCoreOverlapsIndependentMisses(t *testing.T) {
	cfg := testConfig()
	cfg.Core = CoreOoO
	const n, stride = 64, 1 << 16 // every load a fresh L3-missing line
	indep := scan(newOoOCore(cfg), n, stride)
	dep := chase(newOoOCore(cfg), n, stride)
	if indep*2 > dep {
		t.Errorf("independent misses %f cycles vs dependent %f: expected >2x overlap", indep, dep)
	}
}

// TestOoOCoreROBBoundsOverlap: shrinking the reorder buffer must slow
// an independent-miss stream — the window is what bounds how far ahead
// execution runs.
func TestOoOCoreROBBoundsOverlap(t *testing.T) {
	wide := testConfig()
	wide.Core = CoreOoO
	narrow := testConfig()
	narrow.Core = CoreOoO
	narrow.ROBSize = 2
	const n, stride = 64, 1 << 16
	fast := scan(newOoOCore(wide), n, stride)
	slow := scan(newOoOCore(narrow), n, stride)
	if slow <= fast {
		t.Errorf("ROB=2 run (%f cycles) not slower than ROB=%d (%f)", slow, wide.ROBSize, fast)
	}
}

// TestOoOCoreIgnoresOutOfOrderFlag: core=ooo pins the pipeline style;
// the legacy OutOfOrder switch must not change its timing.
func TestOoOCoreIgnoresOutOfOrderFlag(t *testing.T) {
	a := testConfig()
	a.Core = CoreOoO
	a.OutOfOrder = true
	b := testConfig()
	b.Core = CoreOoO
	b.OutOfOrder = false
	const n, stride = 64, 1 << 16
	if ca, cb := scan(NewCoreModel(a), n, stride), scan(NewCoreModel(b), n, stride); ca != cb {
		t.Errorf("OutOfOrder flag changed ooo timing: %f vs %f", ca, cb)
	}
}

// TestInOrderCoreStallsOnEveryMiss: on the inorder model, a stream of
// independent-but-consumed misses costs about as much as a fully
// dependent chain — stall-on-use with no window extracts no MLP —
// while the ooo model runs the same stream far faster.
func TestInOrderCoreStallsOnEveryMiss(t *testing.T) {
	cfg := testConfig()
	cfg.Core = CoreInOrder
	const n, stride = 64, 1 << 16
	indep := scanUse(newInOrderCore(cfg), n, stride)
	dep := chase(newInOrderCore(cfg), n, stride)
	if indep < dep*0.8 {
		t.Errorf("inorder overlapped misses: independent-used %f vs dependent %f", indep, dep)
	}
	ooo := testConfig()
	ooo.Core = CoreOoO
	if fast := scanUse(newOoOCore(ooo), n, stride); indep <= fast*2 {
		t.Errorf("inorder scan (%f) not much slower than ooo scan (%f)", indep, fast)
	}
}

// TestInOrderPrefetchStillHelps: software prefetches must hide latency
// on the inorder model — they access the hierarchy without stalling
// issue, which is the paper's entire premise for in-order machines.
func TestInOrderPrefetchStillHelps(t *testing.T) {
	cfg := testConfig()
	cfg.Core = CoreInOrder
	const n, stride = 64, 1 << 16
	plain := scanUse(newInOrderCore(cfg), n, stride)

	pf := newInOrderCore(cfg)
	// The 64KiB stride maps every line into one L1 set, so the
	// look-ahead must stay below the associativity or the prefetches
	// evict each other before use (the pollution effect of figure 2).
	const ahead = 4
	for i := 0; i < n; i++ {
		pf.Prefetch(2, int64(i+ahead)*stride, 0, true)
		v := pf.Load(1, int64(i)*stride, 0)
		pf.Op(v, 1)
	}
	pf.Finish()
	if pf.Cycles() >= plain {
		t.Errorf("prefetched scan %f cycles, plain %f: prefetch did not help", pf.Cycles(), plain)
	}
}

// TestCoreModelResetReproduces: for every model, Reset must restore a
// cold core — a second identical run reproduces cycles and stats
// exactly (the sweep engine's reuse contract).
func TestCoreModelResetReproduces(t *testing.T) {
	for _, name := range CoreModels() {
		cfg := testConfig()
		cfg.Core = name
		c := NewCoreModel(cfg)
		run := func() (float64, CoreStats) {
			ready := 0.0
			for i := 0; i < 256; i++ {
				ready = c.Load(1, int64(i%7)*4096, ready)
				ready = c.Op(ready, 1)
				c.Branch(ready, true)
			}
			c.Finish()
			return c.Cycles(), c.CoreStats()
		}
		cy1, st1 := run()
		c.Reset()
		cy2, st2 := run()
		if cy1 != cy2 || st1 != st2 {
			t.Errorf("core=%s: reset run differs: %f/%+v vs %f/%+v", name, cy1, st1, cy2, st2)
		}
	}
}

// TestPrefetchLateCyclesAccumulates pins the repaired statistic: a
// demand load that hits a line whose prefetch-issued fill is still in
// flight waits for the fill, and those waited cycles — beyond a normal
// hit at that level — are charged to PrefetchLateCycles.
func TestPrefetchLateCyclesAccumulates(t *testing.T) {
	cfg := testConfig()
	h := NewHierarchy(cfg)
	const addr = 1 << 20

	// Warm the TLB for the page with a demand to a different line, and
	// let its walk and fill drain, so the timings below see no
	// translation latency.
	warm := h.Access(AccessLoad, 9, addr+64, 0)
	t0 := warm + 10

	// Issue the prefetch: the line is filled into every level with its
	// DRAM completion time.
	pfDone := h.Access(AccessPrefetch, 1, addr, t0)
	if pfDone <= t0+float64(cfg.Caches[0].Latency) {
		t.Fatalf("prefetch completed at %f, expected a DRAM-latency fill", pfDone)
	}

	// Demand the line immediately: it hits L1, but the data is not
	// there yet — the load completes with the fill, and the cycles
	// beyond an ordinary L1 hit are the late-prefetch penalty.
	start := t0 + 1
	done := h.Access(AccessLoad, 2, addr, start)
	if done != pfDone {
		t.Fatalf("demand hit on in-flight line completed at %f, want fill time %f", done, pfDone)
	}
	want := pfDone - (start + float64(cfg.Caches[0].Latency))
	if h.PrefetchLateCycles != want {
		t.Errorf("PrefetchLateCycles = %f, want %f", h.PrefetchLateCycles, want)
	}
	if h.PrefetchLateCycles <= 0 {
		t.Errorf("PrefetchLateCycles = %f, want > 0", h.PrefetchLateCycles)
	}

	// A timely demand (after the fill) adds nothing.
	before := h.PrefetchLateCycles
	h.Access(AccessLoad, 2, addr, pfDone+1)
	if h.PrefetchLateCycles != before {
		t.Errorf("timely hit accumulated late cycles: %f -> %f", before, h.PrefetchLateCycles)
	}
}

// TestTLBMidWalkAccessWaits pins the repaired walk semantics: the page
// is inserted into the TLB when its walk starts, but an access hitting
// that entry mid-walk cannot resolve before the walker returns.
func TestTLBMidWalkAccessWaits(t *testing.T) {
	cfg := testConfig()
	tlb := NewTLB(cfg)
	const addr = 42 << 12

	walkDone := tlb.Translate(addr, 0)
	if walkDone < float64(cfg.WalkLatency) {
		t.Fatalf("first access resolved at %f, want a full walk (>= %d)", walkDone, cfg.WalkLatency)
	}

	// Second access to the same page while the walk is in flight: it
	// hits the pre-inserted entry but must wait for the walk.
	if got := tlb.Translate(addr, 1); got != walkDone {
		t.Errorf("mid-walk access resolved at %f, want walk completion %f", got, walkDone)
	}
	if tlb.Walks != 1 {
		t.Errorf("mid-walk access started a second walk (Walks=%d)", tlb.Walks)
	}

	// After the walk completes, hits are instant again.
	if got := tlb.Translate(addr, walkDone+1); got != walkDone+1 {
		t.Errorf("post-walk hit resolved at %f, want %f", got, walkDone+1)
	}
}

// TestTLBMidWalkNoWalkMirrors: TranslateNoWalk's hit paths must mirror
// the fixed Translate semantics — a hit on a mid-walk page waits for
// the walk's completion.
func TestTLBMidWalkNoWalkMirrors(t *testing.T) {
	cfg := testConfig()
	tlb := NewTLB(cfg)
	const addr = 7 << 12

	walkDone := tlb.Translate(addr, 0)
	got, ok := tlb.TranslateNoWalk(addr, 1)
	if !ok {
		t.Fatal("TranslateNoWalk missed a page Translate just inserted")
	}
	if got != walkDone {
		t.Errorf("TranslateNoWalk mid-walk resolved at %f, want walk completion %f", got, walkDone)
	}
	if got2, _ := tlb.TranslateNoWalk(addr, walkDone+1); got2 != walkDone+1 {
		t.Errorf("TranslateNoWalk post-walk hit resolved at %f, want %f", got2, walkDone+1)
	}
}

// TestTLBMidWalkL2HitWaits: the L2 hit path waits for an in-flight
// walk too (the walk inserts into both levels at its start).
func TestTLBMidWalkL2HitWaits(t *testing.T) {
	cfg := testConfig()
	tlb := NewTLB(cfg)
	const addr = 9 << 12

	walkDone := tlb.Translate(addr, 0)
	// Evict the page from the one-level-fits-all L1 by touching enough
	// other pages, leaving the L2 entry (and the pending walk).
	for i := 0; i < cfg.TLBEntries; i++ {
		tlb.Translate(int64(1000+i)<<12, 0)
	}
	got := tlb.Translate(addr, 1)
	if got < walkDone {
		t.Errorf("mid-walk L2 hit resolved at %f, before walk completion %f", got, walkDone)
	}
}

// The per-model core benchmarks drive a mixed instruction stream (the
// CI bench smoke entry for the core-model subsystem).
func benchCore(b *testing.B, name string) {
	cfg := testConfig()
	cfg.Core = name
	c := NewCoreModel(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	ready := 0.0
	for i := 0; i < b.N; i++ {
		switch i % 4 {
		case 0:
			ready = c.Load(1, int64(i)*64, ready)
		case 1:
			ready = c.Op(ready, 1)
		case 2:
			c.Prefetch(2, int64(i+32)*64, ready, true)
		default:
			c.Branch(ready, true)
		}
	}
}

func BenchmarkCoreInterval(b *testing.B) { benchCore(b, CoreInterval) }
func BenchmarkCoreOoO(b *testing.B)      { benchCore(b, CoreOoO) }
func BenchmarkCoreInOrder(b *testing.B)  { benchCore(b, CoreInOrder) }
