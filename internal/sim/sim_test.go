package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testConfig() *Config {
	cfg := DefaultConfig()
	cfg.HWPrefetcher = "none" // most tests want deterministic cache content
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.IssueWidth = 0
	if bad.Validate() == nil {
		t.Error("zero issue width accepted")
	}
	bad2 := DefaultConfig()
	bad2.PageSize = 3000
	if bad2.Validate() == nil {
		t.Error("non-power-of-two page size accepted")
	}
	bad3 := DefaultConfig()
	bad3.Caches = nil
	if bad3.Validate() == nil {
		t.Error("no caches accepted")
	}
	bad4 := DefaultConfig()
	bad4.Caches[1].LineSize = 128
	if bad4.Validate() == nil {
		t.Error("mismatched line sizes accepted")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(CacheConfig{Name: "L1", Size: 1024, LineSize: 64, Assoc: 2, Latency: 4})
	if _, ok := c.Lookup(0, 0, true); ok {
		t.Fatal("cold cache hit")
	}
	c.Fill(0, 10, false)
	ready, ok := c.Lookup(0, 20, true)
	if !ok || ready != 20 {
		t.Fatalf("hit after fill: ready=%v ok=%v, want 20 true", ready, ok)
	}
	// A demand arriving before the fill completes waits for it.
	ready, ok = c.Lookup(0, 5, true)
	if !ok || ready != 10 {
		t.Fatalf("in-flight hit: ready=%v ok=%v, want 10 true", ready, ok)
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("stats: hits=%d misses=%d, want 2,1", c.Hits, c.Misses)
	}
	// Same line, different offset: still a hit.
	if _, ok := c.Lookup(63, 30, true); !ok {
		t.Error("same-line offset missed")
	}
	// Different set index: miss.
	if _, ok := c.Lookup(64, 30, true); ok {
		t.Error("adjacent line hit unexpectedly")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 8 sets of 64B lines: addresses 0, 1024, 2048 map to set 0.
	c := NewCache(CacheConfig{Name: "L1", Size: 1024, LineSize: 64, Assoc: 2, Latency: 4})
	c.Fill(0, 0, false)
	c.Fill(1024, 0, false)
	c.Lookup(0, 1, true) // touch 0: 1024 becomes LRU
	c.Fill(2048, 2, false)
	if !c.Contains(0) {
		t.Error("recently used line evicted")
	}
	if c.Contains(1024) {
		t.Error("LRU line survived")
	}
	if !c.Contains(2048) {
		t.Error("new line missing")
	}
}

func TestCachePrefetchAccounting(t *testing.T) {
	c := NewCache(CacheConfig{Name: "L1", Size: 1024, LineSize: 64, Assoc: 2, Latency: 4})
	c.Fill(0, 0, true)
	if c.PrefetchFills != 1 {
		t.Fatalf("prefetch fills = %d", c.PrefetchFills)
	}
	c.Lookup(0, 1, true)
	if c.PrefetchedUsed != 1 {
		t.Errorf("prefetched-used = %d, want 1", c.PrefetchedUsed)
	}
	// An unused prefetched line evicted counts as pollution.
	c.Fill(1024, 0, true)
	c.Fill(2048, 0, false)
	c.Fill(3072, 0, false) // evicts 1024 (LRU, unused prefetch)
	if c.PrefetchedUnused != 1 {
		t.Errorf("prefetched-unused = %d, want 1", c.PrefetchedUnused)
	}
}

// TestCacheVsReferenceModel cross-checks the set-associative cache
// against a brute-force fully-associative-per-set reference.
func TestCacheVsReferenceModel(t *testing.T) {
	cfg := CacheConfig{Name: "L1", Size: 4096, LineSize: 64, Assoc: 4, Latency: 1}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewCache(cfg)
		type key struct{ set, tag int64 }
		ref := map[int64][]int64{} // set -> lines in LRU order (front = LRU)
		sets := cfg.Sets()
		for step := 0; step < 500; step++ {
			addr := int64(r.Intn(1 << 14))
			line := addr >> 6
			set := line & (sets - 1)
			_, hit := c.Lookup(addr, float64(step), true)
			// Reference.
			lst := ref[set]
			refHit := false
			for i, l := range lst {
				if l == line {
					refHit = true
					lst = append(append(append([]int64{}, lst[:i]...), lst[i+1:]...), line)
					break
				}
			}
			if hit != refHit {
				t.Logf("seed %d step %d addr %d: sim=%v ref=%v", seed, step, addr, hit, refHit)
				return false
			}
			if !hit {
				c.Fill(addr, float64(step), false)
				if len(lst) >= cfg.Assoc {
					lst = lst[1:]
				}
				lst = append(lst, line)
			}
			ref[set] = lst
			_ = key{}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestTLBHitAndWalk(t *testing.T) {
	cfg := testConfig()
	cfg.TLB2Entries = 0
	tlb := NewTLB(cfg)
	done := tlb.Translate(0, 100)
	if done != 100+float64(cfg.WalkLatency) {
		t.Fatalf("first access should walk: done=%v", done)
	}
	if tlb.Walks != 1 {
		t.Fatalf("walks = %d", tlb.Walks)
	}
	if d := tlb.Translate(64, 200); d != 200 {
		t.Errorf("same-page access should hit: %v", d)
	}
	if d := tlb.Translate(2*cfg.PageSize, 300); d != 300+float64(cfg.WalkLatency) {
		t.Errorf("new page should walk: %v", d)
	}
}

func TestTLBWalkerSerialisation(t *testing.T) {
	// One walker: two back-to-back misses at the same time serialise.
	// Two walkers: they proceed in parallel.
	mk := func(walkers int) float64 {
		cfg := testConfig()
		cfg.PageWalkers = walkers
		cfg.TLB2Entries = 0
		tlb := NewTLB(cfg)
		tlb.Translate(0, 0)
		return tlb.Translate(cfg.PageSize, 0) // different page, same time
	}
	one := mk(1)
	two := mk(2)
	cfg := testConfig()
	if one != 2*float64(cfg.WalkLatency) {
		t.Errorf("single walker: second walk done at %v, want %v", one, 2*float64(cfg.WalkLatency))
	}
	if two != float64(cfg.WalkLatency) {
		t.Errorf("two walkers: second walk done at %v, want %v", two, float64(cfg.WalkLatency))
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	cfg := testConfig()
	cfg.TLBEntries = 4
	cfg.TLB2Entries = 0
	tlb := NewTLB(cfg)
	for p := int64(0); p < 5; p++ {
		tlb.Translate(p*cfg.PageSize, float64(p)*1000)
	}
	walks := tlb.Walks
	// Page 0 was LRU and must have been evicted.
	tlb.Translate(0, 10000)
	if tlb.Walks != walks+1 {
		t.Error("evicted page did not re-walk")
	}
}

func TestHugePagesReduceWalks(t *testing.T) {
	walk := func(pageSize int64) uint64 {
		cfg := testConfig()
		cfg.PageSize = pageSize
		cfg.TLBEntries = 8
		cfg.TLB2Entries = 0
		h := NewHierarchy(cfg)
		// Touch 1 MiB of memory sparsely.
		for a := int64(0); a < 1<<20; a += 8192 {
			h.Access(AccessLoad, 1, a, float64(a))
		}
		return h.TLBStats().Walks
	}
	small := walk(4096)
	huge := walk(2 << 20)
	if huge >= small/8 {
		t.Errorf("huge pages should slash walks: small=%d huge=%d", small, huge)
	}
}

func TestHierarchyMissGoesToDRAM(t *testing.T) {
	cfg := testConfig()
	h := NewHierarchy(cfg)
	done := h.Access(AccessLoad, 1, 0, 0)
	// Walk + L1+L2+L3 probes + DRAM latency.
	min := float64(cfg.WalkLatency + cfg.DRAMLatency)
	if done < min {
		t.Errorf("cold miss done at %v, want >= %v", done, min)
	}
	if h.DRAMAccesses != 1 {
		t.Errorf("DRAM accesses = %d", h.DRAMAccesses)
	}
	// Second access to the same line: L1 hit.
	done2 := h.Access(AccessLoad, 1, 8, done)
	if done2 != done+float64(cfg.Caches[0].Latency) {
		t.Errorf("hit at %v, want %v", done2, done+float64(cfg.Caches[0].Latency))
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	cfg := testConfig()
	h := NewHierarchy(cfg)
	h.Access(AccessPrefetch, 7, 4096, 0)
	// Much later, the demand load hits in L1.
	done := h.Access(AccessLoad, 1, 4096, 1000)
	if done != 1000+float64(cfg.Caches[0].Latency) {
		t.Errorf("prefetched line not an L1 hit: %v", done)
	}
	// A too-late prefetch: demand arrives while fill is in flight and
	// waits for completion, not a full re-fetch.
	h2 := NewHierarchy(cfg)
	pfDone := h2.Access(AccessPrefetch, 7, 8192, 0)
	demand := h2.Access(AccessLoad, 1, 8192, 10)
	if demand < 10 || demand > pfDone+float64(cfg.Caches[0].Latency)+1 {
		t.Errorf("late prefetch: demand=%v, prefetch done=%v", demand, pfDone)
	}
	if h2.DRAMAccesses != 1 {
		t.Errorf("demand re-fetched an in-flight line: %d DRAM accesses", h2.DRAMAccesses)
	}
}

func TestMSHRLimitSerialisesMisses(t *testing.T) {
	cfg := testConfig()
	cfg.MSHRs = 2
	cfg.TLBEntries = 1024 // keep TLB out of the picture
	cfg.WalkLatency = 0
	h := NewHierarchy(cfg)
	var last float64
	for i := int64(0); i < 6; i++ {
		last = h.Access(AccessLoad, int(i), i*4096, 0)
	}
	if h.MSHRStallCycles == 0 {
		t.Error("no MSHR stalls with 6 concurrent misses on 2 MSHRs")
	}
	// With ample MSHRs the same pattern overlaps more.
	cfg2 := testConfig()
	cfg2.MSHRs = 16
	cfg2.TLBEntries = 1024
	cfg2.WalkLatency = 0
	h2 := NewHierarchy(cfg2)
	var last2 float64
	for i := int64(0); i < 6; i++ {
		last2 = h2.Access(AccessLoad, int(i), i*4096, 0)
	}
	if last2 >= last {
		t.Errorf("more MSHRs should finish sooner: %v vs %v", last2, last)
	}
}

func TestBusBandwidthContention(t *testing.T) {
	solo := testConfig()
	shared := testConfig()
	shared.SharedCores = 4
	h1 := NewHierarchy(solo)
	h4 := NewHierarchy(shared)
	var d1, d4 float64
	for i := int64(0); i < 32; i++ {
		d1 = h1.Access(AccessLoad, 1, i*4096, 0)
		d4 = h4.Access(AccessLoad, 1, i*4096, 0)
	}
	if d4 <= d1 {
		t.Errorf("bus contention should slow streams: shared=%v solo=%v", d4, d1)
	}
}

func TestStridePrefetcherCoversSequentialStream(t *testing.T) {
	cfg := DefaultConfig() // stride prefetcher on
	h := NewHierarchy(cfg)
	misses := uint64(0)
	t0 := 0.0
	for i := int64(0); i < 512; i++ {
		addr := i * 8 // sequential 8-byte elements
		done := h.Access(AccessLoad, 42, addr, t0)
		t0 = done + 1
	}
	misses = h.Caches()[0].Misses
	// 512 loads cover 64 lines; without prefetching all 64 lines miss.
	// The stride prefetcher should cover most after training.
	if misses > 20 {
		t.Errorf("stride prefetcher left %d L1 misses on a sequential stream", misses)
	}
	if h.HWPrefetches == 0 {
		t.Error("no hardware prefetches issued")
	}
}

func TestStridePrefetcherIgnoresRandom(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		h.Access(AccessLoad, 42, int64(r.Intn(1<<26))&^7, float64(i*10))
	}
	if h.HWPrefetches > 40 {
		t.Errorf("stride prefetcher fired %d times on random stream", h.HWPrefetches)
	}
}

func TestInOrderCoreStallsOnUse(t *testing.T) {
	cfg := testConfig()
	cfg.OutOfOrder = false
	cfg.IssueWidth = 1
	core := newIntervalCore(cfg)
	// A load missing to DRAM...
	v := core.Load(1, 0, 0)
	// ...followed by a dependent op: in-order issue stalls until v.
	before := core.Cycles()
	core.Op(v, 1)
	if core.Cycles() < v {
		t.Errorf("in-order core did not stall: clock=%v, value ready=%v", core.Cycles(), v)
	}
	_ = before
}

func TestOutOfOrderCoreOverlapsMisses(t *testing.T) {
	run := func(ooo bool) float64 {
		cfg := testConfig()
		cfg.OutOfOrder = ooo
		cfg.IssueWidth = 2
		core := newIntervalCore(cfg)
		// 8 independent miss + use pairs.
		for i := int64(0); i < 8; i++ {
			v := core.Load(int(i), i*8192, core.Cycles())
			core.Op(v, 1)
		}
		return core.Finish()
	}
	inOrder := run(false)
	ooo := run(true)
	if ooo*2 > inOrder {
		t.Errorf("OoO should be >2x faster on independent misses: ooo=%v in-order=%v", ooo, inOrder)
	}
}

func TestROBLimitsOverlap(t *testing.T) {
	run := func(rob int) float64 {
		cfg := testConfig()
		cfg.ROBSize = rob
		cfg.TLBEntries = 1024
		cfg.WalkLatency = 0
		core := newIntervalCore(cfg)
		for i := int64(0); i < 64; i++ {
			v := core.Load(int(i), i*8192, core.Cycles())
			core.Op(v, 1)
		}
		return core.Finish()
	}
	small := run(4)
	big := run(256)
	if big >= small {
		t.Errorf("larger ROB should be faster: rob4=%v rob256=%v", small, big)
	}
}

func TestPrefetchDoesNotStallCore(t *testing.T) {
	cfg := testConfig()
	cfg.OutOfOrder = false
	cfg.IssueWidth = 1
	core := newIntervalCore(cfg)
	// Prefetch to a cold line: core advances by ~1 cycle only.
	core.Prefetch(9, 1<<20, 0, true)
	if core.Cycles() > 2 {
		t.Errorf("prefetch stalled the core: clock=%v", core.Cycles())
	}
	// Later demand load hits.
	done := core.Load(1, 1<<20, 500)
	if done > 500+float64(cfg.Caches[0].Latency)+1 {
		t.Errorf("prefetched demand load not a hit: %v", done)
	}
}

func TestInvalidPrefetchDropped(t *testing.T) {
	cfg := testConfig()
	core := newIntervalCore(cfg)
	core.Prefetch(9, 123456, 0, false)
	if core.Hierarchy().SWPrefetches != 0 {
		t.Error("invalid prefetch reached the memory system")
	}
	if core.CoreStats().Prefetches != 1 {
		t.Error("invalid prefetch not counted as an instruction")
	}
}

func TestCoreReset(t *testing.T) {
	core := newIntervalCore(testConfig())
	core.Load(1, 0, 0)
	core.Op(0, 1)
	core.Reset()
	if core.Cycles() != 0 || core.CoreStats().Instructions != 0 {
		t.Error("reset did not clear core state")
	}
	if core.Hierarchy().Loads != 0 {
		t.Error("reset did not clear hierarchy stats")
	}
}

func TestBranchMispredictPenalty(t *testing.T) {
	cfg := testConfig()
	cfg.MispredictRate = 0.5
	cfg.MispredictPenalty = 20
	core := newIntervalCore(cfg)
	for i := 0; i < 10; i++ {
		core.Branch(0, true)
	}
	if core.CoreStats().Mispredicts != 5 {
		t.Errorf("mispredicts = %d, want 5", core.CoreStats().Mispredicts)
	}
	if core.Cycles() < 100 {
		t.Errorf("penalty not applied: clock=%v", core.Cycles())
	}
}

// Property: the hierarchy never returns a completion earlier than the
// request time, and demand hits never beat L1 latency.
func TestQuickAccessMonotonic(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHierarchy(DefaultConfig())
		now := 0.0
		for i := 0; i < 300; i++ {
			addr := int64(r.Intn(1 << 22))
			kind := AccessKind(r.Intn(3))
			done := h.Access(kind, r.Intn(8), addr, now)
			if done < now {
				return false
			}
			if kind == AccessLoad && done < now+float64(h.cfg.Caches[0].Latency) {
				return false
			}
			now += float64(r.Intn(3))
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

// TestInclusiveHierarchy: after any demand load, the line must be
// present in every level at and below the serving level, so upper-level
// evictions never lose the only copy.
func TestInclusiveHierarchy(t *testing.T) {
	cfg := testConfig()
	h := NewHierarchy(cfg)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 400; i++ {
		addr := int64(r.Intn(1 << 18))
		h.Access(AccessLoad, r.Intn(4), addr, float64(i*5))
		last := h.Caches()[len(h.Caches())-1]
		if !last.Contains(addr) {
			t.Fatalf("LLC lost line for %#x after access %d", addr, i)
		}
	}
}

// TestPrefetchPollutionVisible: blasting prefetches at a tiny cache
// must register unused-prefetch evictions — the pollution signal the
// too-early look-ahead case of figure 2 rests on.
func TestPrefetchPollutionVisible(t *testing.T) {
	cfg := testConfig()
	h := NewHierarchy(cfg)
	for i := int64(0); i < 4096; i++ {
		h.Access(AccessPrefetch, 1, i*64, float64(i))
	}
	l1 := h.Caches()[0]
	if l1.PrefetchedUnused == 0 {
		t.Error("no pollution recorded despite 4096 untouched prefetches")
	}
}

// TestSharedBusMonotoneInCores: more contending cores must never make
// an access stream faster.
func TestSharedBusMonotoneInCores(t *testing.T) {
	finish := func(cores int) float64 {
		cfg := testConfig()
		cfg.SharedCores = cores
		h := NewHierarchy(cfg)
		var last float64
		for i := int64(0); i < 64; i++ {
			last = h.Access(AccessLoad, 1, i*4096, float64(i))
		}
		return last
	}
	t1, t2, t4 := finish(1), finish(2), finish(4)
	if !(t1 <= t2 && t2 <= t4) {
		t.Errorf("contention not monotone: %v %v %v", t1, t2, t4)
	}
}

// TestStrideTrackerInterference: two interleaved access streams inside
// one 4KiB region share a tracker, destroying the stride signal — the
// mechanism that leaves an intuitive-only prefetch scheme exposed when
// its look-ahead load walks the same array as the demand stream
// (figs. 2 and 5).
func TestStrideTrackerInterference(t *testing.T) {
	run := func(interfere bool) uint64 {
		cfg := DefaultConfig()
		h := NewHierarchy(cfg)
		now := 0.0
		for i := int64(0); i < 512; i++ {
			h.Access(AccessLoad, 1, i*8, now) // demand stream
			if interfere {
				// A second stream 32 elements ahead in the same region,
				// like the look-ahead load of an indirect-only prefetch.
				h.Access(AccessLoad, 2, (i+32)*8, now)
			}
			now += 4
		}
		return h.HWPrefetches
	}
	clean := run(false)
	interfered := run(true)
	if interfered*2 > clean {
		t.Errorf("same-region interleaving should break stride detection: clean=%d interfered=%d",
			clean, interfered)
	}
}

// TestStrideTrackerCapacity: a stream touched rarely relative to a
// barrage of random accesses loses its tracker to LRU replacement and
// never regains confidence.
func TestStrideTrackerCapacity(t *testing.T) {
	run := func(streams int) uint64 {
		cfg := DefaultConfig()
		cfg.StrideStreams = streams
		h := NewHierarchy(cfg)
		r := rand.New(rand.NewSource(3))
		now := 0.0
		for i := int64(0); i < 512; i++ {
			h.Access(AccessLoad, 1, i*64, now) // one line per touch
			for k := 0; k < 24; k++ {          // random traffic in between
				h.Access(AccessLoad, 2, int64(r.Intn(1<<26))&^7, now)
			}
			now += 50
		}
		return h.HWPrefetches
	}
	starved := run(8)
	roomy := run(4096)
	if starved*2 > roomy {
		t.Errorf("tracker eviction should starve the slow stream: 8 trackers=%d, 4096 trackers=%d",
			starved, roomy)
	}
}
