package sweep

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/hwpf"
	"repro/internal/sim"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// HWPrefetcherDefault is the hardware-prefetcher axis value that keeps
// each system's own default model (the per-machine uarch presets).
const HWPrefetcherDefault = "default"

// CoreDefault is the core axis value that keeps each system's own core
// timing model (sim.Config.CoreName — the interval model unless a
// preset pins one explicitly).
const CoreDefault = "default"

// Grid is a declarative experiment grid: the cross product of
// workloads, machine configurations, hardware-prefetcher models and
// variants, all sharing one option set. Expand enumerates it
// workload-major (workload, then system, then hardware prefetcher,
// then variant), the paper's presentation order.
//
// An empty axis yields zero requests: a grid with no workloads, no
// systems or no variants expands to nothing and Run returns an empty
// result set without error (pinned by TestGridExpandEmptyAxis).
// HWPrefetchers and Cores are the exception: they contribute no
// configurations of their own (they only modulate Systems), so empty
// means {"default"} — one pass with each system's own model, which is
// what every grid written before the axes existed gets.
type Grid struct {
	Workloads     []*workloads.Workload
	Systems       []*sim.Config
	HWPrefetchers []string

	// Cores is the CPU-core-model axis: "default" keeps each system's
	// own core timing model; "interval", "ooo" and "inorder" pin one
	// (see internal/sim coremodel.go).
	Cores []string

	Variants []core.Variant
	Options  core.Options

	// Execs is the execution-mode axis (innermost). Like HWPrefetchers
	// it only modulates how cells run, so empty means {direct} — the
	// behaviour of every grid written before the axis existed.
	Execs []core.ExecMode
}

// Expand enumerates the grid's cells as requests. The hardware and
// core axes materialise as derived machine configurations (one shared
// copy per system × hwpf × core, so sweep workers still recycle one
// simulator per configuration), which is also how the models reach the
// internal/store key: the full sim.Config is hashed, HWPrefetcher and
// Core fields included.
func (g Grid) Expand() []Request {
	hws := g.HWPrefetchers
	if len(hws) == 0 {
		hws = []string{HWPrefetcherDefault}
	}
	cores := g.Cores
	if len(cores) == 0 {
		cores = []string{CoreDefault}
	}
	derived := make(map[*sim.Config]map[string]*sim.Config)
	system := func(cfg *sim.Config, hw, cm string) *sim.Config {
		if hw == HWPrefetcherDefault && cm == CoreDefault {
			return cfg
		}
		key := hw + "/" + cm
		byAxis := derived[cfg]
		if byAxis == nil {
			byAxis = make(map[string]*sim.Config)
			derived[cfg] = byAxis
		}
		if c, ok := byAxis[key]; ok {
			return c
		}
		c := cfg
		if hw != HWPrefetcherDefault {
			c = uarch.WithHWPrefetcher(c, hw)
		}
		if cm != CoreDefault {
			c = uarch.WithCoreModel(c, cm)
		}
		byAxis[key] = c
		return c
	}
	execs := g.Execs
	if len(execs) == 0 {
		execs = []core.ExecMode{core.ExecDirect}
	}
	reqs := make([]Request, 0, g.Size())
	for _, w := range g.Workloads {
		for _, cfg := range g.Systems {
			for _, hw := range hws {
				for _, cm := range cores {
					sys := system(cfg, hw, cm)
					for _, v := range g.Variants {
						for _, e := range execs {
							reqs = append(reqs, Request{Workload: w, System: sys, Variant: v, Options: g.Options, Exec: e})
						}
					}
				}
			}
		}
	}
	return reqs
}

// Size returns the number of requests Expand returns, without
// expanding, saturating like Product.
func (g Grid) Size() int {
	return Product(len(g.Workloads), len(g.Systems), max(len(g.HWPrefetchers), 1),
		max(len(g.Cores), 1), len(g.Variants), max(len(g.Execs), 1))
}

// Product multiplies non-negative counts, saturating at math.MaxInt,
// so a caller can bound a grid that could never be built.
func Product(counts ...int) int {
	n := 1
	for _, k := range counts {
		switch {
		case k == 0:
			return 0
		case n > math.MaxInt/k:
			n = math.MaxInt
		default:
			n *= k
		}
	}
	return n
}

// Run expands the grid and executes it on jobs workers.
func (g Grid) Run(jobs int) (*ResultSet, error) {
	return Execute(g.Expand(), jobs)
}

// RunWith expands the grid and executes it with the given runner, so
// callers can attach a result cache or a progress callback.
func (g Grid) RunWith(r Runner) (*ResultSet, error) {
	return r.Execute(g.Expand())
}

// Variants lists every variant the engine accepts, in presentation
// order.
func Variants() []core.Variant {
	return []core.Variant{
		core.VariantPlain,
		core.VariantAuto,
		core.VariantManual,
		core.VariantICC,
		core.VariantIndirectOnly,
	}
}

// VariantAxis is the variant selector ("" selects plain,auto — the
// baseline pair of every speedup).
func VariantAxis() Axis[core.Variant] {
	return Axis[core.Variant]{
		Noun:    "variant",
		Values:  Variants(),
		Name:    func(v core.Variant) string { return string(v) },
		Default: []core.Variant{core.VariantPlain, core.VariantAuto},
	}
}

// ParseVariants parses a comma-separated variant list ("" selects
// plain,auto — the baseline pair of every speedup).
func ParseVariants(s string) ([]core.Variant, error) { return VariantAxis().Parse(s) }

// HWPrefetchers lists every value the hardware-prefetcher axis
// accepts: "default" (keep each machine's own model) followed by the
// hwpf registry in presentation order.
func HWPrefetchers() []string {
	return append([]string{HWPrefetcherDefault}, hwpf.Names()...)
}

// HWPrefetcherAxis is the hardware-prefetcher selector ("" selects
// default — each system's own model).
func HWPrefetcherAxis() Axis[string] {
	return Axis[string]{
		Noun:    "hardware prefetcher",
		Values:  HWPrefetchers(),
		Name:    func(s string) string { return s },
		Default: []string{HWPrefetcherDefault},
	}
}

// ParseHWPrefetchers parses a comma-separated hardware-prefetcher
// axis ("" selects default — each system's own model).
func ParseHWPrefetchers(s string) ([]string, error) { return HWPrefetcherAxis().Parse(s) }

// Cores lists every value the core axis accepts: "default" (keep each
// machine's own core timing model) followed by the sim core-model
// registry in presentation order.
func Cores() []string {
	return append([]string{CoreDefault}, sim.CoreModels()...)
}

// CoreAxis is the CPU-core-model selector ("" selects default — each
// system's own timing model).
func CoreAxis() Axis[string] {
	return Axis[string]{
		Noun:    "core model",
		Values:  Cores(),
		Name:    func(s string) string { return s },
		Default: []string{CoreDefault},
	}
}

// ParseCores parses a comma-separated core-model axis ("" selects
// default — each system's own timing model).
func ParseCores(s string) ([]string, error) { return CoreAxis().Parse(s) }

// ExecModes lists every value the execution-mode axis accepts, in
// presentation order.
func ExecModes() []core.ExecMode { return core.ExecModes() }

// ExecModeAxis is the execution-mode selector ("" selects direct).
func ExecModeAxis() Axis[core.ExecMode] {
	return Axis[core.ExecMode]{
		Noun:    "exec mode",
		Values:  ExecModes(),
		Name:    func(e core.ExecMode) string { return string(e) },
		Default: []core.ExecMode{core.ExecDirect},
	}
}

// ParseExecModes parses a comma-separated execution-mode axis (""
// selects direct).
func ParseExecModes(s string) ([]core.ExecMode, error) { return ExecModeAxis().Parse(s) }

// SystemAxis is the machine selector ("" selects all four Table 1
// systems).
func SystemAxis() Axis[*sim.Config] {
	return Axis[*sim.Config]{
		Noun:    "system",
		Values:  uarch.All(),
		Name:    func(cfg *sim.Config) string { return cfg.Name },
		Default: uarch.All(),
	}
}

// ParseSystems parses a comma-separated machine list ("" selects all
// four Table 1 systems).
func ParseSystems(s string) ([]*sim.Config, error) { return SystemAxis().Parse(s) }

// SelectWorkloads picks named workloads out of the available set (""
// selects all of them). Names match exactly or by prefix, so "G500"
// selects both Graph500 scales while "HJ-2" selects one hash join.
func SelectWorkloads(avail []*workloads.Workload, s string) ([]*workloads.Workload, error) {
	if strings.TrimSpace(s) == "" {
		return avail, nil
	}
	var out []*workloads.Workload
	chosen := make(map[*workloads.Workload]bool)
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		matched := false
		for _, w := range avail {
			if w.Name == name || strings.HasPrefix(w.Name, name) {
				matched = true
				if !chosen[w] {
					chosen[w] = true
					out = append(out, w)
				}
			}
		}
		if !matched {
			var have []string
			for _, w := range avail {
				have = append(have, w.Name)
			}
			return nil, fmt.Errorf("sweep: unknown workload %q (have %s)", name, strings.Join(have, ", "))
		}
	}
	return out, nil
}
