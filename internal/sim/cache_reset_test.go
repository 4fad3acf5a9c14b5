package sim_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/uarch"
)

// TestCacheResetClearsFilledSets: Reset rewrites only the sets filled
// since the previous Reset, so after loads scattered over every level
// of a Haswell hierarchy each cache must equal a fresh NewCache line for
// line. A filled set that Reset skipped keeps a valid tag and fails the
// comparison. Two rounds check that the filled-set list starts over.
func TestCacheResetClearsFilledSets(t *testing.T) {
	cfg := uarch.Haswell()
	h := sim.NewHierarchy(cfg)
	r := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 2; round++ {
		now := 0.0
		for i := 0; i < 3000; i++ {
			// A 64 MiB range: far larger than the L3, so misses reach
			// every level and scatter over its sets.
			now = h.Access(sim.AccessLoad, i%7, r.Int64N(64<<20), now) + 1
		}
		for l, c := range h.Caches() {
			fresh := sim.CacheLines(sim.NewCache(cfg.Caches[l]))
			lines := sim.CacheLines(c)
			if slices.Equal(lines, fresh) {
				t.Fatalf("round %d: %s holds no line before Reset; the test fills nothing", round, cfg.Caches[l].Name)
			}
			assoc := cfg.Caches[l].Assoc
			sets := 0
			for s := 0; s < len(lines); s += assoc {
				if !slices.Equal(lines[s:s+assoc], fresh[s:s+assoc]) {
					sets++
				}
			}
			if sets < 2 {
				t.Fatalf("round %d: %s has %d filled sets, want them scattered", round, cfg.Caches[l].Name, sets)
			}
		}
		h.Reset()
		for l, c := range h.Caches() {
			fresh := sim.NewCache(cfg.Caches[l])
			if !slices.Equal(sim.CacheLines(c), sim.CacheLines(fresh)) {
				t.Errorf("round %d: %s differs from a fresh cache after Reset", round, cfg.Caches[l].Name)
			}
			if c.Hits != 0 || c.Misses != 0 || c.PrefetchFills != 0 || c.PrefetchedUnused != 0 || c.PrefetchedUsed != 0 {
				t.Errorf("round %d: %s statistics survive Reset", round, cfg.Caches[l].Name)
			}
		}
	}
}
