package core

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func TestRunAllVariants(t *testing.T) {
	w := workloads.IS(1<<12, 1<<14)
	cfg := uarch.Haswell()
	for _, v := range []Variant{VariantPlain, VariantAuto, VariantManual, VariantICC, VariantIndirectOnly} {
		res, err := Run(w, cfg, v, Options{})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if res.Cycles <= 0 {
			t.Errorf("%s: no cycles", v)
		}
		if res.Workload != "IS" || res.System != "Haswell" || res.Variant != v {
			t.Errorf("%s: metadata wrong: %+v", v, res)
		}
		switch v {
		case VariantPlain, VariantManual:
			if res.Pass != nil {
				t.Errorf("%s: unexpected pass report", v)
			}
		default:
			if res.Pass == nil {
				t.Errorf("%s: missing pass report", v)
			}
		}
	}
}

func TestRunChecksumsAgree(t *testing.T) {
	w := workloads.RA(12, 1<<10)
	cfg := uarch.A53()
	var sums []int64
	for _, v := range []Variant{VariantPlain, VariantAuto, VariantManual} {
		res, err := Run(w, cfg, v, Options{C: 16})
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, res.Checksum)
	}
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Errorf("checksums diverge: %v", sums)
	}
}

// TestContextReuseBitIdentical is the regression test for the reusable
// execution context: interleaved runs on one Context — same cell twice
// with different cells and machines in between — must reproduce a fresh
// simulator's statistics exactly.
func TestContextReuseBitIdentical(t *testing.T) {
	is := workloads.IS(1<<12, 1<<14)
	ra := workloads.RA(12, 1<<10)
	// The context keys simulators by configuration pointer (derived
	// configs can share a name), so hold the two configs across runs.
	hw, a53 := uarch.Haswell(), uarch.A53()
	cx := NewContext()
	first, err := cx.Run(is, hw, VariantAuto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the context's simulators with other cells.
	if _, err := cx.Run(ra, a53, VariantManual, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cx.Run(is, hw, VariantPlain, Options{}); err != nil {
		t.Fatal(err)
	}
	again, err := cx.Run(is, hw, VariantAuto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(is, hw, VariantAuto, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*Result{again, fresh} {
		if got.Cycles != first.Cycles || got.Stats != first.Stats ||
			got.Checksum != first.Checksum ||
			got.L1Hits != first.L1Hits || got.L1Misses != first.L1Misses ||
			got.DRAMAccesses != first.DRAMAccesses || got.TLBWalks != first.TLBWalks {
			t.Fatalf("context reuse not bit-identical: %+v vs %+v", got, first)
		}
	}
	if len(cx.cores) != 2 {
		t.Errorf("context holds %d cores, want one per configuration (2)", len(cx.cores))
	}
}

func TestRunUnknownVariant(t *testing.T) {
	w := workloads.IS(1<<8, 1<<8)
	if _, err := Run(w, uarch.A53(), Variant("jit"), Options{}); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestSpeedup(t *testing.T) {
	a := &Result{Cycles: 100}
	b := &Result{Cycles: 50}
	if s := Speedup(a, b); s != 2 {
		t.Errorf("Speedup = %v, want 2", s)
	}
	if s := Speedup(a, &Result{}); s != 0 {
		t.Errorf("Speedup against zero cycles = %v, want 0", s)
	}
}

func TestOptionsDefaults(t *testing.T) {
	if (Options{}).c() != 64 {
		t.Error("default c must be 64 (the paper's setting)")
	}
	if (Options{C: 16}).c() != 16 {
		t.Error("explicit c ignored")
	}
}

func TestTransform(t *testing.T) {
	mod := ir.MustParse(`module m
func f(%a: ptr, %b: ptr, %n: i64) -> void {
entry:
  br header
header:
  %i = phi i64 [entry: 0, body: %i2]
  %c = cmp lt %i, %n
  cbr %c, body, exit
body:
  %t1 = gep %a, %i, 4
  %t2 = load i32, %t1
  %t3 = gep %b, %t2, 4
  %t4 = load i32, %t3
  %i2 = add %i, 1
  br header
exit:
  ret
}
`)
	res, err := Transform(mod, Options{C: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(res["f"].Emitted) != 2 {
		t.Errorf("emitted %d prefetches, want 2", len(res["f"].Emitted))
	}
	if !strings.Contains(mod.String(), "prefetch") {
		t.Error("transformed module contains no prefetch instruction")
	}
}

// TestVariantEffectOrdering: on an in-order machine with a memory-bound
// input, the canonical ordering must hold: manual >= auto > plain, and
// the restricted ICC mode must not beat the full pass.
func TestVariantEffectOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-bound sizes")
	}
	w := workloads.IS(1<<14, 1<<18)
	cfg := uarch.A53()
	cycles := map[Variant]float64{}
	for _, v := range []Variant{VariantPlain, VariantAuto, VariantManual, VariantICC} {
		res, err := Run(w, cfg, v, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cycles[v] = res.Cycles
	}
	if !(cycles[VariantAuto] < cycles[VariantPlain]) {
		t.Errorf("auto (%.0f) must beat plain (%.0f)", cycles[VariantAuto], cycles[VariantPlain])
	}
	if cycles[VariantManual] > cycles[VariantAuto]*1.1 {
		t.Errorf("manual (%.0f) should not lose badly to auto (%.0f)", cycles[VariantManual], cycles[VariantAuto])
	}
	if cycles[VariantICC] < cycles[VariantAuto]*0.9 {
		t.Errorf("restricted mode (%.0f) should not clearly beat the full pass (%.0f)",
			cycles[VariantICC], cycles[VariantAuto])
	}
}
