package core

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// TestContextMemoizesKernelsAndSimulators: a repeated Run of one
// (workload, variant, options) on a Context builds no kernel and no
// simulator and returns the first run's result; different Options
// build a kernel anew on the same simulator.
func TestContextMemoizesKernelsAndSimulators(t *testing.T) {
	w := workloads.IS(1<<12, 1<<14)
	cfg := uarch.Haswell()
	cx := NewContext()
	first, err := cx.Run(w, cfg, VariantAuto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	simulator := cx.cores[cfg].v
	k := cx.kernels[kernelKey{w, VariantAuto, Options{}}].v
	again, err := cx.Run(w, cfg, VariantAuto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cx.cores) != 1 || cx.cores[cfg].v != simulator {
		t.Errorf("repeated run built a simulator: %d held", len(cx.cores))
	}
	if len(cx.kernels) != 1 || cx.kernels[kernelKey{w, VariantAuto, Options{}}].v != k {
		t.Errorf("repeated run built a kernel: %d held", len(cx.kernels))
	}
	if !reflect.DeepEqual(again, first) {
		t.Errorf("repeated run differs: %+v vs %+v", again, first)
	}

	o := Options{C: 16}
	other, err := cx.Run(w, cfg, VariantAuto, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cx.kernels) != 2 || cx.kernels[kernelKey{w, VariantAuto, o}] == nil {
		t.Errorf("run with other options built no kernel: %d held", len(cx.kernels))
	}
	if len(cx.cores) != 1 {
		t.Errorf("run with other options on the same machine built a simulator: %d held", len(cx.cores))
	}
	fresh, err := Run(w, cfg, VariantAuto, o)
	if err != nil {
		t.Fatal(err)
	}
	if other.Cycles != fresh.Cycles || other.Stats != fresh.Stats || other.Pass.Emitted == nil {
		t.Errorf("memoized context's c=16 run differs from a fresh one: %+v vs %+v", other, fresh)
	}
}

// TestContextTrimKeepsMostRecent: Trim keeps the most recently used
// simulators and kernels, and a trimmed context still computes the
// same results.
func TestContextTrimKeepsMostRecent(t *testing.T) {
	w := workloads.IS(1<<8, 1<<10)
	cx := NewContext()
	var cfgs []*sim.Config
	for i := 0; i < keepSimulators+2; i++ {
		cfg := uarch.A53()
		cfgs = append(cfgs, cfg)
		if _, err := cx.Run(w, cfg, VariantPlain, Options{C: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	cx.Trim()
	if len(cx.cores) != keepSimulators || len(cx.kernels) != keepSimulators+2 {
		t.Fatalf("trimmed context holds %d simulators and %d kernels, want %d and %d",
			len(cx.cores), len(cx.kernels), keepSimulators, keepSimulators+2)
	}
	for i, cfg := range cfgs {
		if _, held := cx.cores[cfg]; held != (i >= 2) {
			t.Errorf("configuration %d held = %v after Trim", i, held)
		}
	}
	got, err := cx.Run(w, cfgs[0], VariantPlain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(w, cfgs[0], VariantPlain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("run after Trim differs: %+v vs %+v", got, want)
	}
}

// BenchmarkWarmGenCell repeats one generated-kernel cell on one
// Context. The kernel and the simulator are built before the timer
// starts, so allocs/op counts the run alone (machine, simulated memory
// and result); per-cell kernel builds or simulator allocations would
// multiply it.
func BenchmarkWarmGenCell(b *testing.B) {
	pool, err := workloads.PoolByQuality("gen")
	if err != nil {
		b.Fatal(err)
	}
	w, cfg := pool[0], uarch.Haswell()
	cx := NewContext()
	if _, err := cx.Run(w, cfg, VariantAuto, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cx.Run(w, cfg, VariantAuto, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
