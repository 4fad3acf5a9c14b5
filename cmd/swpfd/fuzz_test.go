package main

import (
	"testing"

	"repro/internal/fleet"
)

// FuzzSweepSpec feeds arbitrary bytes to POST /sweep's decoding and
// validation, the cell bound included: no body may panic, a body that
// is accepted never expands to more cells than the bound, and each of
// its cells has a wire form.
func FuzzSweepSpec(f *testing.F) {
	for _, seed := range []string{
		tinySpec,
		`[{"workloads":"IS","systems":"A53","variants":"plain,auto","quality":"tiny"},{"workloads":"CG","systems":"A53","variants":"plain","quality":"tiny","priority":5}]`,
		`{"workloads":"IS,CG,RA","systems":"A53,A53","variants":"plain,auto","hwpf":"none,imp","core":"ooo","exec":"direct,replay","quality":"tiny"}`,
		`{"exec":"jit","quality":"tiny"}`,
		`{"quality":"huge"}`,
		`{"gen":3,"quality":"tiny"}`,
		`{}`,
		`[]`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	const limit = 64
	f.Fuzz(func(t *testing.T, body []byte) {
		subs, _, err := prepareSweep(body, limit)
		if err != nil {
			return
		}
		cells := 0
		for _, sub := range subs {
			for _, req := range sub.reqs {
				fleet.SpecFor(sub.spec.QualityName(), req) // the wire form the queue builds
			}
			cells += len(sub.reqs)
		}
		if cells > limit {
			t.Fatalf("accepted a body of %d cells over the bound of %d", cells, limit)
		}
	})
}
