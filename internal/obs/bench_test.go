package obs

import "testing"

// The instrumentation hot path must be allocation-free: CI's bench
// smoke runs these benchmarks. ReportAllocs makes a regression visible
// in the numbers; TestHotPathZeroAlloc hard-fails on any allocation.

func BenchmarkCounterAdd(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("swpf_bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	reg := NewRegistry()
	g := reg.Gauge("swpf_bench_depth", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("swpf_bench_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&0xff) * 1e-4)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("swpf_bench_par_seconds", "", nil)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(2.5e-3)
		}
	})
}

func TestHotPathZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("swpf_alloc_total", "")
	g := reg.Gauge("swpf_alloc_depth", "")
	h := reg.Histogram("swpf_alloc_seconds", "", nil)
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(1.5e-3) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
}
