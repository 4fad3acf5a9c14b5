package sweep

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// fixedCache answers the requests it was built with and persists
// nothing, so every run sees the same hits.
type fixedCache map[Request]*core.Result

func (c fixedCache) Get(r Request) (*core.Result, bool) {
	r.Exec = ""
	res, ok := c[r]
	return res, ok
}

func (c fixedCache) Put(Request, *core.Result) error { return nil }

// TestServeMatchesExecute: batches run through one long-lived pool
// yield, batch by batch, the result set each batch yields alone
// through Execute, byte for byte, at Jobs 1, 2 and 8. The batches mix
// direct cells, replay groups, cache hits and, in the first, a cell
// that panics; at Jobs 1 every later batch runs on the goroutine that
// recovered from it. Six machines pass through, more than a trimmed
// context keeps. At most one call of next is in flight, and Serve
// returns once every batch is done.
func TestServeMatchesExecute(t *testing.T) {
	ws := workloads.Tiny()
	is, cg := ws[0], ws[1]
	a53, haswell, phi, a57, bad := uarch.A53(), uarch.Haswell(), uarch.XeonPhi(), uarch.A57(), poisoned()
	a53imp, hwnone := uarch.WithHWPrefetcher(a53, "imp"), uarch.WithHWPrefetcher(haswell, "none")
	plain, auto, replay := core.VariantPlain, core.VariantAuto, core.ExecReplay
	batches := [][]Request{
		{
			{Workload: is, System: a53, Variant: plain},
			{Workload: is, System: bad, Variant: plain}, // panics
			{Workload: cg, System: a53, Variant: auto, Exec: replay},
			{Workload: cg, System: haswell, Variant: auto, Exec: replay},
			{Workload: cg, System: phi, Variant: auto, Exec: replay},
		},
		{
			{Workload: is, System: haswell, Variant: auto}, // a cache hit
			{Workload: cg, System: a57, Variant: plain},
			{Workload: is, System: a53imp, Variant: auto, Exec: replay},
			{Workload: is, System: hwnone, Variant: auto, Exec: replay},
			{Workload: is, System: a57, Variant: auto, Exec: replay},
		},
		{
			{Workload: is, System: haswell, Variant: auto}, // all hits
		},
		{
			{Workload: cg, System: a53imp, Variant: plain},
			{Workload: is, System: a53, Variant: plain},
			{Workload: cg, System: hwnone, Variant: auto, Exec: replay},
			{Workload: cg, System: phi, Variant: auto, Exec: replay},
			{Workload: is, System: haswell, Variant: auto}, // a cache hit
		},
	}
	hit := Request{Workload: is, System: haswell, Variant: auto}
	warm, err := Runner{Jobs: 1}.Execute([]Request{hit})
	if err != nil {
		t.Fatal(err)
	}
	cache := fixedCache{hit: warm.Outcomes[0].Result}

	render := func(set *ResultSet) []byte {
		var b bytes.Buffer
		if err := set.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if err := set.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	want := make([][]byte, len(batches))
	for i, reqs := range batches {
		set, _ := Runner{Jobs: 1, Cache: cache}.Execute(reqs)
		want[i] = render(set)
	}
	if !bytes.Contains(want[0], []byte("panic: ")) {
		t.Fatal("the first batch's poison cell did not fail with its panic")
	}

	for _, jobs := range []int{1, 2, 8} {
		var mu sync.Mutex
		got := make([][]byte, len(batches))
		var fetched, inNext atomic.Int32
		Runner{Jobs: jobs, Cache: cache}.Serve(func() (Batch, bool) {
			if inNext.Add(1) > 1 {
				t.Errorf("jobs %d: two calls of next in flight", jobs)
			}
			defer inNext.Add(-1)
			i := int(fetched.Add(1)) - 1
			if i == len(batches) {
				return Batch{}, false
			}
			return Batch{Reqs: batches[i], Done: func(set *ResultSet) {
				mu.Lock()
				defer mu.Unlock()
				got[i] = render(set)
			}}, true
		})
		for i := range batches {
			if got[i] == nil {
				t.Errorf("jobs %d: batch %d never done", jobs, i)
			} else if !bytes.Equal(got[i], want[i]) {
				t.Errorf("jobs %d: batch %d differs from Execute:\n%s\nvs\n%s", jobs, i, got[i], want[i])
			}
		}
	}
}
