package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// A Figure builds one table of the evaluation from the simulation
// cells it reads through get. Every figure is a view over one
// experiment matrix: Suite.Run calls each selected figure first
// against a recorder, to learn its cells, and again once those cells
// have run.
//
// Which cells a figure reads must therefore never depend on results.
// A figure may pick among results (the best manual depth, the tuned
// look-ahead), but it must read every candidate whatever the values.
type Figure func(q Quality, get Lookup) (*Table, error)

// Lookup returns the result of one cell of the matrix.
type Lookup func(w *workloads.Workload, cfg *sim.Config, v core.Variant, o core.Options) *core.Result

// manualDepths lists the stagger depths figure 4's best-manual
// selection tries: every supported level, or just the default when the
// workload ignores depth.
func manualDepths(w *workloads.Workload) []int {
	if w.ManualDepths == 0 {
		return []int{0}
	}
	ds := make([]int, w.ManualDepths)
	for i := range ds {
		ds[i] = i + 1
	}
	return ds
}

// bestManual returns the lowest-cycle manual run of w on cfg over
// every stagger depth, keeping the shallowest on ties.
func bestManual(get Lookup, w *workloads.Workload, cfg *sim.Config) *core.Result {
	var best *core.Result
	for _, d := range manualDepths(w) {
		if r := get(w, cfg, core.VariantManual, core.Options{Depth: d}); best == nil || r.Cycles < best.Cycles {
			best = r
		}
	}
	return best
}

// Fig2 reproduces figure 2: software-prefetching schemes for the
// integer-sort kernel on Haswell. "Intuitive" inserts only the indirect
// prefetch (listing 1 line 4); "optimal" adds the staggered stride
// prefetch (line 6); the offset variants use the optimal scheme with a
// too-small / too-big look-ahead.
func Fig2(q Quality, get Lookup) (*Table, error) {
	w := workloadByName(q, "IS")
	hw := uarch.Haswell()
	t := &Table{
		Title:   "Figure 2: prefetching technique vs speedup, IS on Haswell",
		Columns: []string{"technique", "speedup"},
		Note:    "paper: intuitive 1.08x, optimal 1.30x; too small/too big below optimal",
	}
	for _, cse := range []struct {
		name    string
		variant core.Variant
		c       int64
	}{
		{"Intuitive", core.VariantIndirectOnly, 64},
		{"Offset too small", core.VariantAuto, 4},
		{"Offset too big", core.VariantAuto, 1024},
		{"Optimal", core.VariantAuto, 64},
	} {
		o := core.Options{C: cse.c}
		t.AddRow(cse.name, f2(core.Speedup(get(w, hw, core.VariantPlain, o), get(w, hw, cse.variant, o))))
	}
	return t, nil
}

// Fig4 reproduces figure 4 on one system: auto-generated and manual
// prefetch speedups for every benchmark; on the Xeon Phi the ICC-like
// restricted pass is included as a third series.
func Fig4(system string) Figure {
	return func(q Quality, get Lookup) (*Table, error) {
		cfg := uarch.ByName(system)
		if cfg == nil {
			return nil, fmt.Errorf("bench: unknown system %q", system)
		}
		withICC := system == "XeonPhi"
		cols := []string{"benchmark", "auto", "manual"}
		if withICC {
			cols = []string{"benchmark", "icc", "auto", "manual"}
		}
		t := &Table{
			Title:   fmt.Sprintf("Figure 4: speedup on %s (c=64)", system),
			Columns: cols,
			Note:    "paper geomeans: Haswell 1.3x, A57 1.1x, A53 2.1x, Xeon Phi 2.7x",
		}
		var autos, manuals, iccs []float64
		for _, w := range WorkloadSet(q) {
			base := get(w, cfg, core.VariantPlain, core.Options{})
			row := []string{w.Name}
			if withICC {
				sICC := core.Speedup(base, get(w, cfg, core.VariantICC, core.Options{}))
				iccs = append(iccs, sICC)
				row = append(row, f2(sICC))
			}
			sa := core.Speedup(base, get(w, cfg, core.VariantAuto, core.Options{}))
			sm := core.Speedup(base, bestManual(get, w, cfg))
			autos = append(autos, sa)
			manuals = append(manuals, sm)
			t.AddRow(append(row, f2(sa), f2(sm))...)
		}
		grow := []string{"Geomean"}
		if withICC {
			grow = append(grow, f2(geomean(iccs)))
		}
		t.AddRow(append(grow, f2(geomean(autos)), f2(geomean(manuals)))...)
		return t, nil
	}
}

// Fig5 reproduces figure 5: on Haswell, the indirect prefetch alone
// versus indirect plus staggered stride prefetch, both auto-generated.
func Fig5(q Quality, get Lookup) (*Table, error) {
	hw := uarch.Haswell()
	t := &Table{
		Title:   "Figure 5: indirect-only vs indirect+stride prefetch, Haswell (auto)",
		Columns: []string{"benchmark", "indirect only", "indirect+stride"},
		Note:    "paper: stride companions help across the board despite the HW prefetcher",
	}
	var only, both []float64
	for _, w := range WorkloadSet(q) {
		base := get(w, hw, core.VariantPlain, core.Options{})
		s1 := core.Speedup(base, get(w, hw, core.VariantIndirectOnly, core.Options{}))
		s2 := core.Speedup(base, get(w, hw, core.VariantAuto, core.Options{}))
		only = append(only, s1)
		both = append(both, s2)
		t.AddRow(w.Name, f2(s1), f2(s2))
	}
	t.AddRow("Geomean", f2(geomean(only)), f2(geomean(both)))
	return t, nil
}

// Fig6Distances is the look-ahead sweep of figure 6.
var Fig6Distances = []int64{4, 8, 16, 32, 64, 128, 256}

// Fig6 reproduces figure 6 for one benchmark: speedup vs look-ahead
// distance c across all four systems, using manual prefetches as the
// paper does ("based on manual insertion, to show the limits of
// performance achievable across systems regardless of algorithm").
func Fig6(benchName string) Figure {
	return func(q Quality, get Lookup) (*Table, error) {
		w := workloadByName(q, benchName)
		if w == nil {
			return nil, fmt.Errorf("bench: unknown benchmark %q", benchName)
		}
		cols := []string{"system"}
		for _, c := range Fig6Distances {
			cols = append(cols, fmt.Sprintf("c=%d", c))
		}
		t := &Table{
			Title:   fmt.Sprintf("Figure 6: speedup vs look-ahead distance, %s", w.Name),
			Columns: cols,
			Note:    "paper: optimum is flat and c=64 is close to best everywhere",
		}
		for _, cfg := range systems() {
			base := get(w, cfg, core.VariantPlain, core.Options{})
			row := []string{cfg.Name}
			for _, c := range Fig6Distances {
				row = append(row, f2(core.Speedup(base, get(w, cfg, core.VariantManual, core.Options{C: c}))))
			}
			t.AddRow(row...)
		}
		return t, nil
	}
}

// Fig7 reproduces figure 7: prefetching progressively more dependent
// loads of HJ-8's four-deep chain, on every system.
func Fig7(q Quality, get Lookup) (*Table, error) {
	w := workloadByName(q, "HJ-8")
	t := &Table{
		Title:   "Figure 7: HJ-8 speedup vs prefetch stagger depth (manual)",
		Columns: []string{"system", "depth 1", "depth 2", "depth 3", "depth 4"},
		Note:    "paper: depth 3 is optimal on every architecture",
	}
	for _, cfg := range systems() {
		base := get(w, cfg, core.VariantPlain, core.Options{})
		row := []string{cfg.Name}
		for d := 1; d <= 4; d++ {
			row = append(row, f2(core.Speedup(base, get(w, cfg, core.VariantManual, core.Options{C: 64, Depth: d}))))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig8 reproduces figure 8: the percentage increase in dynamic
// instruction count on Haswell from adding software prefetches (best
// scheme per benchmark, i.e. the manual variant).
func Fig8(q Quality, get Lookup) (*Table, error) {
	hw := uarch.Haswell()
	t := &Table{
		Title:   "Figure 8: % extra dynamic instructions from prefetching, Haswell",
		Columns: []string{"benchmark", "% extra instructions"},
		Note:    "paper: ~70% for IS/RA, ~80% for CG, small for G500 (outer-loop prefetches only)",
	}
	for _, w := range WorkloadSet(q) {
		base := get(w, hw, core.VariantPlain, core.Options{})
		man := bestManual(get, w, hw)
		extra := 100 * (float64(man.Stats.Instructions) - float64(base.Stats.Instructions)) /
			float64(base.Stats.Instructions)
		t.AddRow(w.Name, fmt.Sprintf("%.1f", extra))
	}
	return t, nil
}

// Fig9 reproduces figure 9: normalized throughput of IS on Haswell with
// 1, 2 and 4 cores contending for DRAM, with and without prefetching.
// Throughput is (tasks/time) normalized to one task on one core without
// prefetching: N * T(1, no-pf) / T(N, variant).
func Fig9(q Quality, get Lookup) (*Table, error) {
	w := workloadByName(q, "IS")
	t := &Table{
		Title:   "Figure 9: IS normalized throughput vs core count, Haswell",
		Columns: []string{"cores", "no prefetching", "prefetching"},
		Note:    "paper: throughput <1 at 4 cores without prefetching; prefetching still wins",
	}
	solo := get(w, uarch.Haswell(), core.VariantPlain, core.Options{})
	for _, n := range []int{1, 2, 4} {
		cfg := uarch.WithCores(uarch.Haswell(), n)
		// One task per core: N tasks complete in one core's contended
		// time T(N), versus N*T(1,no-pf) run back to back on one core —
		// so normalized throughput is T(1,no-pf)/T(N).
		tpBase := solo.Cycles / get(w, cfg, core.VariantPlain, core.Options{}).Cycles
		tpPF := solo.Cycles / get(w, cfg, core.VariantManual, core.Options{}).Cycles
		t.AddRow(fmt.Sprintf("%d", n), f2(tpBase), f2(tpPF))
	}
	return t, nil
}

// Fig10 reproduces figure 10: prefetching speedup with transparent huge
// pages enabled and disabled on Haswell, for the TLB-sensitive
// benchmarks IS, RA and HJ-2. Each speedup is normalized to no
// prefetching under the same page policy.
func Fig10(q Quality, get Lookup) (*Table, error) {
	t := &Table{
		Title:   "Figure 10: prefetch speedup with small vs huge pages, Haswell",
		Columns: []string{"benchmark", "small pages", "huge pages"},
		Note:    "paper: huge pages shift gains but trends are consistent",
	}
	cfgs := []*sim.Config{
		uarch.SmallPages(uarch.Haswell()),
		uarch.HugePages(uarch.Haswell()),
	}
	for _, name := range []string{"IS", "RA", "HJ-2"} {
		w := workloadByName(q, name)
		row := []string{w.Name}
		for _, cfg := range cfgs {
			base := get(w, cfg, core.VariantPlain, core.Options{})
			row = append(row, f2(core.Speedup(base, get(w, cfg, core.VariantManual, core.Options{}))))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// swhwModels is the hardware side of the software-vs-hardware
// comparison: the legacy streamer, the Markov correlator, and the
// indirect memory prefetcher (the paper's §7 hardware competitor).
var swhwModels = []string{"stride", "ghb", "imp"}

// FigSWHW is the software-vs-hardware prefetching comparison on one
// machine — the table the paper argues from but never prints: every
// benchmark under {no software prefetch, auto software prefetch} ×
// {no hardware prefetcher, stride, GHB, IMP}, as speedup over the
// fully-prefetch-free baseline (plain code, hwpf=none). The "sw only"
// column isolates the compiler pass; the per-model pairs show what
// hardware achieves alone and whether it still composes with the
// software pass on top.
func FigSWHW(system string) Figure {
	return func(q Quality, get Lookup) (*Table, error) {
		cfg := uarch.ByName(system)
		if cfg == nil {
			return nil, fmt.Errorf("bench: unknown system %q", system)
		}
		cols := []string{"benchmark", "sw only"}
		for _, m := range swhwModels {
			cols = append(cols, m, m+"+sw")
		}
		t := &Table{
			Title:   fmt.Sprintf("SW vs HW prefetching: speedup over no-prefetch baseline, %s (c=64)", system),
			Columns: cols,
			Note:    "paper §7: software prefetch beats hardware (incl. IMP) for indirect accesses; IMP beats stride where A[B[i]] dominates",
		}
		none := uarch.WithHWPrefetcher(cfg, "none")
		hwCfgs := make([]*sim.Config, len(swhwModels))
		for i, m := range swhwModels {
			hwCfgs[i] = uarch.WithHWPrefetcher(cfg, m)
		}
		geo := make([][]float64, len(cols)-1)
		for _, w := range WorkloadSet(q) {
			base := get(w, none, core.VariantPlain, core.Options{})
			speeds := []float64{core.Speedup(base, get(w, none, core.VariantAuto, core.Options{}))}
			for _, hc := range hwCfgs {
				speeds = append(speeds,
					core.Speedup(base, get(w, hc, core.VariantPlain, core.Options{})),
					core.Speedup(base, get(w, hc, core.VariantAuto, core.Options{})))
			}
			cells := []string{w.Name}
			for j, sp := range speeds {
				geo[j] = append(geo[j], sp)
				cells = append(cells, f2(sp))
			}
			t.AddRow(cells...)
		}
		t.AddRow(geomeanRow(geo)...)
		return t, nil
	}
}

// FigCores is the core-model sensitivity study: every benchmark's
// automatic software-prefetch speedup on Haswell's memory system under
// each CPU core timing model. The spread is the paper's central
// observation (§6) replayed along one axis: an in-order core, unable
// to overlap misses itself, gains enormously from software prefetch,
// while an out-of-order window already extracts memory-level
// parallelism and gains far less from the same code — so the in-order
// column must dominate the out-of-order ones.
func FigCores(q Quality, get Lookup) (*Table, error) {
	t := &Table{
		Title:   "Core models: auto-prefetch speedup by CPU timing model, Haswell memory system (c=64)",
		Columns: append([]string{"benchmark"}, sim.CoreModels()...),
		Note:    "paper §6: in-order cores gain most from software prefetch; out-of-order windows already extract MLP",
	}
	var coreCfgs []*sim.Config
	for _, m := range sim.CoreModels() {
		coreCfgs = append(coreCfgs, uarch.WithCoreModel(uarch.Haswell(), m))
	}
	geo := make([][]float64, len(coreCfgs))
	for _, w := range WorkloadSet(q) {
		cells := []string{w.Name}
		for j, cc := range coreCfgs {
			sp := core.Speedup(get(w, cc, core.VariantPlain, core.Options{}), get(w, cc, core.VariantAuto, core.Options{}))
			geo[j] = append(geo[j], sp)
			cells = append(cells, f2(sp))
		}
		t.AddRow(cells...)
	}
	t.AddRow(geomeanRow(geo)...)
	return t, nil
}

// geomeanRow is the closing "Geomean" row over per-column speedups.
func geomeanRow(cols [][]float64) []string {
	row := []string{"Geomean"}
	for _, c := range cols {
		row = append(row, f2(geomean(c)))
	}
	return row
}
