package sim

// cacheLine is one way of one set.
type cacheLine struct {
	tag   int64 // line address (addr >> lineShift); -1 = invalid
	ready float64
	used  uint64 // LRU stamp
	pf    bool   // brought in by a prefetch and not yet demanded
}

// Cache is a set-associative cache with LRU replacement. Lines carry a
// readiness timestamp so that a demand access arriving while a fill is
// still in flight waits for the fill rather than re-fetching.
type Cache struct {
	cfg       CacheConfig
	lineShift uint
	setMask   int64
	lines     []cacheLine
	stamp     uint64
	// filled lists the sets filled since the last Reset, which clears
	// only those. A fill takes a set's first invalid way and nothing
	// else invalidates a line, so a set is empty exactly while its way
	// 0 is: the fill into way 0 is the set's first.
	filled []int32

	// Stats.
	Hits, Misses     uint64
	PrefetchFills    uint64
	PrefetchedUnused uint64 // prefetched lines evicted without a demand hit
	PrefetchedUsed   uint64
}

// NewCache builds a cache from its configuration.
func NewCache(cfg CacheConfig) *Cache {
	shift := uint(0)
	for 1<<shift != cfg.LineSize {
		shift++
		if shift > 30 {
			panic("sim: line size must be a power of two")
		}
	}
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("sim: number of sets must be a power of two")
	}
	c := &Cache{
		cfg:       cfg,
		lineShift: shift,
		setMask:   sets - 1,
		lines:     make([]cacheLine, sets*int64(cfg.Assoc)),
	}
	for i := range c.lines {
		c.lines[i].tag = -1
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) set(lineAddr int64) []cacheLine {
	s := (lineAddr & c.setMask) * int64(c.cfg.Assoc)
	return c.lines[s : s+int64(c.cfg.Assoc)]
}

// Lookup probes the cache. On hit it returns the time at which the data
// is available (fill completion for in-flight lines, else now) and
// updates LRU. On miss it returns ok=false.
func (c *Cache) Lookup(addr int64, now float64, demand bool) (ready float64, ok bool) {
	lineAddr := addr >> c.lineShift
	set := c.set(lineAddr)
	for i := range set {
		if set[i].tag == lineAddr {
			c.stamp++
			set[i].used = c.stamp
			if demand {
				c.Hits++
				if set[i].pf {
					set[i].pf = false
					c.PrefetchedUsed++
				}
			}
			r := set[i].ready
			if r < now {
				r = now
			}
			return r, true
		}
	}
	if demand {
		c.Misses++
	}
	return 0, false
}

// Fill inserts a line that becomes ready at the given time, evicting
// the LRU way.
func (c *Cache) Fill(addr int64, ready float64, isPrefetch bool) {
	lineAddr := addr >> c.lineShift
	set := c.set(lineAddr)
	victim := 0
	for i := range set {
		if set[i].tag == lineAddr {
			// Already present (racing fills); keep the earlier ready time.
			if ready < set[i].ready {
				set[i].ready = ready
			}
			return
		}
		if set[i].tag == -1 {
			victim = i
			if i == 0 {
				c.filled = append(c.filled, int32(lineAddr&c.setMask))
			}
			goto place
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	if set[victim].pf {
		c.PrefetchedUnused++
	}
place:
	c.stamp++
	set[victim] = cacheLine{tag: lineAddr, ready: ready, used: c.stamp, pf: isPrefetch}
	if isPrefetch {
		c.PrefetchFills++
	}
}

// Contains reports whether the line holding addr is present (test hook).
func (c *Cache) Contains(addr int64) bool {
	lineAddr := addr >> c.lineShift
	for i := range c.set(lineAddr) {
		if c.set(lineAddr)[i].tag == lineAddr {
			return true
		}
	}
	return false
}

// Reset invalidates all lines and clears statistics. It rewrites only
// the sets filled since the last Reset: a short run on a large cache
// costs what it touched, not the cache's size.
func (c *Cache) Reset() {
	assoc := int64(c.cfg.Assoc)
	for _, s := range c.filled {
		set := c.lines[int64(s)*assoc : int64(s+1)*assoc]
		for i := range set {
			set[i] = cacheLine{tag: -1}
		}
	}
	c.filled = c.filled[:0]
	c.stamp = 0
	c.Hits, c.Misses = 0, 0
	c.PrefetchFills, c.PrefetchedUnused, c.PrefetchedUsed = 0, 0, 0
}
