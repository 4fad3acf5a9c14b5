package tune

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// Spec describes one tuning request: the embedded sweep.Spec selects
// what to tune (workloads, systems, one prefetch variant, a quality
// pool), and the tune-specific fields bound the search. It is the one
// type all three surfaces share — swpfbench -tune, swpfd's POST /tune
// body and swpfctl tune all build (or decode) this struct, and Space
// is the single place it is validated.
//
// The embedded spec's fixed-option fields (c, depth, hoist) must stay
// unset: those are the axes being searched. So must its exec and core
// axes, which the search does not cover. The variant selector must
// resolve to exactly one non-plain variant ("" selects auto); plain is
// the baseline every candidate is scored against. The hwpf selector
// bounds the hardware-prefetcher search axis ("" pins each system's
// own model).
type Spec struct {
	sweep.Spec
	// Strategy selects the search strategy ("" = exhaustive; see
	// Strategies).
	Strategy string `json:"strategy,omitempty"`
	// Cs, Depths and Hoists bound the search ladders, comma-separated
	// ("" = DefaultCs / DefaultDepths / DefaultHoists). Ladders are
	// sorted ascending and deduplicated, so the sensitivity curve is
	// always emitted in look-ahead order.
	Cs     string `json:"cs,omitempty"`
	Depths string `json:"depths,omitempty"`
	Hoists string `json:"hoists,omitempty"`
}

// Strategy names a search strategy.
type Strategy string

const (
	// StrategyExhaustive scores every configuration in the bounded
	// grid — one batched evaluation, so the sweep engine parallelizes
	// it and the store memoizes every cell.
	StrategyExhaustive Strategy = "exhaustive"
	// StrategyHillclimb coordinate-descends from c nearest 64: each
	// round proposes every alternative value along one axis at a time
	// (batched across all workload × system pairs), moves on strict
	// improvement, and stops at a local optimum. It evaluates far
	// fewer cells than exhaustive on wide ladders; the final
	// sensitivity curve is completed along the full c ladder.
	StrategyHillclimb Strategy = "hillclimb"
)

// Strategies lists every search strategy, in presentation order.
func Strategies() []Strategy { return []Strategy{StrategyExhaustive, StrategyHillclimb} }

// StrategyAxis is the strategy selector ("" selects exhaustive). It is
// a sweep.Axis so the tuner shares the sweep package's one selector
// grammar and error contract.
func StrategyAxis() sweep.Axis[Strategy] {
	return sweep.Axis[Strategy]{
		Noun:    "strategy",
		Prefix:  "tune",
		Values:  Strategies(),
		Name:    func(s Strategy) string { return string(s) },
		Default: []Strategy{StrategyExhaustive},
	}
}

// HoistAxis is the hoist search-ladder selector ("" selects false).
func HoistAxis() sweep.Axis[bool] {
	return sweep.Axis[bool]{
		Noun:    "hoist",
		Prefix:  "tune",
		Values:  []bool{false, true},
		Name:    strconv.FormatBool,
		Default: slices.Clone(DefaultHoists),
	}
}

// Default search ladders. The look-ahead ladder spans both failure
// modes the paper identifies — too small (prefetches arrive late) and
// too large (lines evicted before use) — so the optimum is interior
// for prefetch-friendly workloads.
var (
	DefaultCs     = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	DefaultDepths = []int{0}
	DefaultHoists = []bool{false}
)

// Config is one point of the search space: the knobs the tuner may
// turn. Everything else (workload, system, variant, quality) is fixed
// by the spec.
type Config struct {
	C     int64  `json:"c"`
	Depth int    `json:"depth"`
	Hoist bool   `json:"hoist,omitempty"`
	HWPF  string `json:"hwpf"`
}

// Options returns the core options the config denotes.
func (c Config) Options() core.Options {
	return core.Options{C: c.C, Depth: c.Depth, Hoist: c.Hoist}
}

// Space is a resolved, validated Spec: concrete workloads, systems and
// ladders. Configs enumerates the full candidate grid hwpf-major with
// c innermost — the tie-break order (earliest wins), so "best" is
// deterministic even between configs with identical speedups.
type Space struct {
	Workloads []*workloads.Workload
	Systems   []*sim.Config
	Variant   core.Variant
	HWPFs     []string
	Cs        []int64
	Depths    []int
	Hoists    []bool
	Strategy  Strategy
}

// Size returns the number of candidate configurations per
// workload × system pair.
func (s *Space) Size() int {
	return len(s.HWPFs) * len(s.Depths) * len(s.Hoists) * len(s.Cs)
}

// MaxBatch returns the most requests one evaluation round submits,
// saturating like sweep.Product. Exhaustive's one round holds every
// candidate of every pair plus a plain baseline per pair and hardware
// prefetcher. Hillclimb's largest is its first round (a candidate and
// its baseline per pair), one axis's alternatives (a hardware-prefetcher
// move adds a baseline) or the final look-ahead curve.
func (s *Space) MaxBatch() int {
	pairs := sweep.Product(len(s.Workloads), len(s.Systems))
	if s.Strategy == StrategyExhaustive {
		candidates := sweep.Product(len(s.Depths), len(s.Hoists), len(s.Cs))
		return sweep.Product(pairs, len(s.HWPFs), min(candidates, math.MaxInt-1)+1)
	}
	return sweep.Product(pairs, max(2, len(s.Cs), len(s.Depths)-1, len(s.Hoists)-1, 2*(len(s.HWPFs)-1)))
}

// Configs enumerates the candidate grid in tie-break order.
func (s *Space) Configs() []Config {
	out := make([]Config, 0, s.Size())
	for _, hw := range s.HWPFs {
		for _, d := range s.Depths {
			for _, h := range s.Hoists {
				for _, c := range s.Cs {
					out = append(out, Config{C: c, Depth: d, Hoist: h, HWPF: hw})
				}
			}
		}
	}
	return out
}

// Space resolves and validates the spec against the workload and axis
// registries — submission-time validation, shared by every surface, so
// a bad spec is a client error, never a failed search.
func (sp Spec) Space() (*Space, error) {
	if sp.C != 0 || sp.Depth != 0 || sp.Hoist {
		return nil, fmt.Errorf(`tune: "c", "depth" and "hoist" are searched, not fixed; bound the search with "cs"/"depths"/"hoists"`)
	}
	if sp.Exec != "" {
		return nil, fmt.Errorf(`tune: "exec" is not a tuned axis (evaluations run direct)`)
	}
	if sp.Core != "" {
		return nil, fmt.Errorf(`tune: "core" is not a tuned axis (evaluations run each system's own core model)`)
	}
	pool, err := sp.Pool()
	if err != nil {
		return nil, err
	}
	ws, err := sweep.SelectWorkloads(pool, sp.Workloads)
	if err != nil {
		return nil, err
	}
	cfgs, err := sweep.ParseSystems(sp.Systems)
	if err != nil {
		return nil, err
	}
	variant := core.VariantAuto
	if strings.TrimSpace(sp.Variants) != "" {
		vs, err := sweep.ParseVariants(sp.Variants)
		if err != nil {
			return nil, err
		}
		if len(vs) != 1 {
			return nil, fmt.Errorf("tune: exactly one variant is tuned at a time (got %q)", sp.Variants)
		}
		if vs[0] == core.VariantPlain {
			return nil, fmt.Errorf("tune: variant %q is the baseline; tune one of auto, manual, icc, indirect-only", core.VariantPlain)
		}
		variant = vs[0]
	}
	hws, err := sweep.ParseHWPrefetchers(sp.HWPF)
	if err != nil {
		return nil, err
	}
	hws = dedupe(hws)
	cs, err := parseLadder(sp.Cs, "look-ahead", 1, DefaultCs)
	if err != nil {
		return nil, err
	}
	depths64, err := parseLadder(sp.Depths, "depth", 0, int64s(DefaultDepths))
	if err != nil {
		return nil, err
	}
	hoists, err := HoistAxis().Parse(sp.Hoists)
	if err != nil {
		return nil, err
	}
	hoists = dedupe(hoists)
	strategies, err := StrategyAxis().Parse(sp.Strategy)
	if err != nil {
		return nil, err
	}
	strategies = dedupe(strategies)
	if len(strategies) != 1 {
		return nil, fmt.Errorf("tune: exactly one strategy (got %q)", sp.Strategy)
	}
	return &Space{
		Workloads: ws,
		Systems:   cfgs,
		Variant:   variant,
		HWPFs:     hws,
		Cs:        cs,
		Depths:    ints(depths64),
		Hoists:    hoists,
		Strategy:  strategies[0],
	}, nil
}

// Validate checks the spec; it reports exactly the error Space would.
func (sp Spec) Validate() error {
	_, err := sp.Space()
	return err
}

// parseLadder parses a comma-separated integer search ladder with the
// axis parser's contract: "" denotes the default, any bad token fails
// the whole parse quoting the offender, no partial result. Ladders are
// sorted ascending and deduplicated.
func parseLadder(s, noun string, min int64, dflt []int64) ([]int64, error) {
	if strings.TrimSpace(s) == "" {
		return slices.Clone(dflt), nil
	}
	var out []int64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil || v < min {
			return nil, fmt.Errorf("tune: bad %s %q (want integers >= %d, comma-separated)", noun, tok, min)
		}
		out = append(out, v)
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// dedupe drops repeated selections, keeping first-occurrence order:
// a search axis is a set, unlike a sweep axis.
func dedupe[T comparable](xs []T) []T {
	seen := make(map[T]bool, len(xs))
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func int64s(xs []int) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = int64(x)
	}
	return out
}

func ints(xs []int64) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}
