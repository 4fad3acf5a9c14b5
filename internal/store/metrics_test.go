package store

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// scrape renders and re-parses the registry.
func scrape(t *testing.T, reg *obs.Registry) []obs.Sample {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestStoreMetrics: the collector mirrors Stats() — a miss, a put and
// a hit all surface under the swpf_store_* names.
func TestStoreMetrics(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Register(reg)

	req := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantAuto,
		Options:  core.Options{C: 16},
	}
	if _, ok := s.Get(req); ok {
		t.Fatal("unexpected hit on an empty store")
	}
	if err := s.Put(req, &core.Result{Checksum: 1, Cycles: 2}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(req); !ok {
		t.Fatal("miss after Put")
	}

	samples := scrape(t, reg)
	for name, want := range map[string]float64{
		"swpf_store_hits_total":   1,
		"swpf_store_misses_total": 1,
		"swpf_store_puts_total":   1,
	} {
		if got := obs.Find(samples, name); got == nil || got.Value != want {
			t.Errorf("%s: %+v, want %v", name, got, want)
		}
	}
}
