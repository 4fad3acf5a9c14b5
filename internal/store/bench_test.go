package store

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// benchRequest is the cell the store benchmarks exercise: the tiny
// integer-sort workload on the generic machine, auto-prefetched.
func benchRequest() sweep.Request {
	return sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantAuto,
		Options:  core.Options{C: 16},
	}
}

// BenchmarkKey measures the canonical-hash cost per request.
func BenchmarkKey(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	req := benchRequest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Key(req)
	}
}

// BenchmarkGetHit measures a warm cache lookup: hash, index lookup,
// one positioned read of the log line, decode, rebuild the result.
// Compare against BenchmarkFreshSimulation — the ratio is what a warm
// sweep saves per cell.
func BenchmarkGetHit(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	req := benchRequest()
	res, err := core.Run(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put(req, res); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(req); !ok {
			b.Fatal("benchmark entry missing")
		}
	}
}

// BenchmarkPut measures persisting one result: encode the object and
// append it to the log in one write.
func BenchmarkPut(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	req := benchRequest()
	res, err := core.Run(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(req, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFreshSimulation is the cost a cache hit avoids: actually
// simulating the benchmark cell (with a storage-recycling context,
// i.e. the sweep engine's fast path).
func BenchmarkFreshSimulation(b *testing.B) {
	req := benchRequest()
	cx := core.NewContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cx.Run(req.Workload, req.System, req.Variant, req.Options); err != nil {
			b.Fatal(err)
		}
	}
}
