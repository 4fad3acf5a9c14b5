package sweep

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// openCache is a Cache + TraceCache that watches replay groups from
// outside the engine: a group opens at its GetTrace, which the engine
// calls before it fetches or records the group's trace, and closes
// when the result of its last cell is Put. Results always miss, so
// every cell runs; traces persist across sweeps.
type openCache struct {
	mu         sync.Mutex
	left       map[string]int // per group: cells whose result is not yet Put
	traces     map[string]*trace.Trace
	open, peak int
}

func groupOf(r Request) string {
	return r.Workload.Name + "|" + r.Workload.Params + "|" + string(r.Variant)
}

// reset arms the cache for one sweep of reqs.
func (c *openCache) reset(reqs []Request) {
	c.left = map[string]int{}
	for _, r := range reqs {
		c.left[groupOf(r)]++
	}
	c.open, c.peak = 0, 0
}

func (c *openCache) Get(Request) (*core.Result, bool) { return nil, false }

func (c *openCache) Put(r Request, _ *core.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := groupOf(r)
	if c.left[k]--; c.left[k] == 0 {
		c.open--
	}
	return nil
}

func (c *openCache) GetTrace(r Request) (*trace.Trace, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.open++
	c.peak = max(c.peak, c.open)
	t, ok := c.traces[groupOf(r)]
	return t, ok
}

func (c *openCache) PutTrace(r Request, t *trace.Trace) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.traces[groupOf(r)] = t
	return nil
}

// TestReplaySweepBoundsOpenGroups pins the replay memory bound: however
// many groups a sweep has, at most Jobs + 1 are open at once — so at
// most that many images are alive — whether the groups record their
// traces or fetch them, and the result set stays byte-identical across
// worker counts.
func TestReplaySweepBoundsOpenGroups(t *testing.T) {
	g := Grid{
		Workloads:     workloads.Tiny(),
		Systems:       uarch.All()[:2],
		HWPrefetchers: []string{"default", "none"},
		Variants:      []core.Variant{core.VariantPlain, core.VariantAuto},
		Execs:         []core.ExecMode{core.ExecReplay},
	}
	reqs := g.Expand()
	var want []byte
	for _, jobs := range []int{1, 2, 4} {
		cache := &openCache{traces: map[string]*trace.Trace{}}
		for _, pass := range []string{"recorded", "fetched"} {
			cache.reset(reqs)
			if len(cache.left) < 8 {
				t.Fatalf("grid has %d groups, want at least 8", len(cache.left))
			}
			set, err := Runner{Jobs: jobs, Cache: cache}.Execute(reqs)
			if err != nil {
				t.Fatalf("jobs %d, %s traces: %v", jobs, pass, err)
			}
			if cache.peak > jobs+1 {
				t.Errorf("jobs %d, %s traces: %d groups open at once, want at most %d", jobs, pass, cache.peak, jobs+1)
			}
			if cache.open != 0 {
				t.Errorf("jobs %d, %s traces: %d groups still open after the sweep", jobs, pass, cache.open)
			}
			var buf bytes.Buffer
			if err := set.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("jobs %d, %s traces: result set differs from jobs 1's", jobs, pass)
			}
		}
	}
}
