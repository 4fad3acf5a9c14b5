// Package tune searches the software-prefetch configuration space.
// Given a workload × machine selection, it finds the (look-ahead,
// depth, hoist, hardware-prefetcher) configuration with the best
// speedup over the no-prefetch baseline — the paper's look-ahead
// sensitivity study (figure 6) turned into an automated optimizer.
//
// Every candidate is scored against the plain variant on the same
// machine with the same hardware-prefetcher model, so "speedup"
// always means "what did software prefetching buy on this hardware".
// All evaluations flow through a sweep-compatible Runner in large
// batches: attach sweep.Runner with a store cache and every cell is
// memoized fleet-wide; re-tuning a warm store performs zero fresh
// simulations. Searches are fully deterministic — the same spec
// produces byte-identical reports for any worker count.
package tune

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// Runner evaluates request batches. sweep.Runner satisfies it — that
// is how evaluations reach the worker pool, the result store and (via
// the daemon's queue-backed runner) the fleet.
type Runner interface {
	Execute([]sweep.Request) (*sweep.ResultSet, error)
}

// Tuner runs searches. The zero value is not useful: Runner must be
// set (sweep.Runner{} is the minimal choice).
type Tuner struct {
	Runner Runner
	// Metrics, when non-nil, counts rounds, evaluations and memo hits
	// (see NewMetrics). Counting never influences the search.
	Metrics *Metrics
}

// maxRounds bounds hillclimb's coordinate-descent rounds. Each round
// sweeps every axis; the search converges long before this on real
// spaces — the bound only guards against speedup-tie pathologies.
const maxRounds = 16

// Run executes the search the spec describes.
func (t Tuner) Run(spec Spec) (*Report, error) {
	space, err := spec.Space()
	if err != nil {
		return nil, err
	}
	if t.Runner == nil {
		return nil, fmt.Errorf("tune: Tuner.Runner is nil")
	}
	e := newEvaluator(t, space)
	var best []Config
	switch space.Strategy {
	case StrategyExhaustive:
		best, err = e.exhaustive()
	case StrategyHillclimb:
		best, err = e.hillclimb()
	default:
		err = fmt.Errorf("tune: unimplemented strategy %q", space.Strategy)
	}
	if err != nil {
		return nil, err
	}
	return e.report(spec, best), nil
}

// pair is one (workload, system) tuning problem; a search optimizes
// every pair of the selection simultaneously, batching evaluations
// across pairs.
type pair struct {
	w   *workloads.Workload
	sys *sim.Config
}

// cell is one requested evaluation: a candidate configuration for one
// pair.
type cell struct {
	p   int
	cfg Config
}

// evaluator scores candidate configurations through the Runner,
// memoizing speedups and baselines so no cell is ever submitted
// twice.
type evaluator struct {
	t     Tuner
	space *Space
	pairs []pair
	// derived memoizes hwpf-derived machine configurations per
	// (system, model), exactly like sweep.Grid.Expand, so every
	// evaluation of a pair at one hwpf shares one *sim.Config (and
	// one recycled simulator per sweep worker).
	derived map[*sim.Config]map[string]*sim.Config
	base    []map[string]float64 // per pair: hwpf -> baseline (plain) cycles
	speed   []map[Config]float64 // per pair: candidate -> speedup over baseline
	evals   []int                // per pair: candidate evaluations performed
}

func newEvaluator(t Tuner, space *Space) *evaluator {
	e := &evaluator{
		t:       t,
		space:   space,
		derived: make(map[*sim.Config]map[string]*sim.Config),
	}
	for _, w := range space.Workloads {
		for _, sys := range space.Systems {
			e.pairs = append(e.pairs, pair{w, sys})
			e.base = append(e.base, make(map[string]float64))
			e.speed = append(e.speed, make(map[Config]float64))
			e.evals = append(e.evals, 0)
		}
	}
	return e
}

func (e *evaluator) system(cfg *sim.Config, hw string) *sim.Config {
	if hw == sweep.HWPrefetcherDefault {
		return cfg
	}
	byHW := e.derived[cfg]
	if byHW == nil {
		byHW = make(map[string]*sim.Config)
		e.derived[cfg] = byHW
	}
	if c, ok := byHW[hw]; ok {
		return c
	}
	c := uarch.WithHWPrefetcher(cfg, hw)
	byHW[hw] = c
	return c
}

// run evaluates every not-yet-memoized cell in one Runner batch,
// including any plain baselines the cells' speedups need. One batch
// means the sweep engine parallelizes freely and a queue-backed
// runner submits one deduplicated fleet job per round.
func (e *evaluator) run(cells []cell) error {
	type slot struct {
		p    int
		cfg  Config
		base bool
	}
	var reqs []sweep.Request
	var slots []slot
	queuedBase := make(map[int]map[string]bool)
	queuedCand := make(map[cell]bool)
	m := e.t.metrics()
	for _, c := range cells {
		if _, ok := e.speed[c.p][c.cfg]; ok {
			m.MemoHits.Inc()
			continue
		}
		if queuedCand[c] {
			continue
		}
		queuedCand[c] = true
		pr := e.pairs[c.p]
		sys := e.system(pr.sys, c.cfg.HWPF)
		if _, ok := e.base[c.p][c.cfg.HWPF]; !ok {
			q := queuedBase[c.p]
			if q == nil {
				q = make(map[string]bool)
				queuedBase[c.p] = q
			}
			if !q[c.cfg.HWPF] {
				q[c.cfg.HWPF] = true
				reqs = append(reqs, sweep.Request{Workload: pr.w, System: sys, Variant: core.VariantPlain})
				slots = append(slots, slot{p: c.p, cfg: c.cfg, base: true})
			}
		}
		reqs = append(reqs, sweep.Request{Workload: pr.w, System: sys, Variant: e.space.Variant, Options: c.cfg.Options()})
		slots = append(slots, slot{p: c.p, cfg: c.cfg})
	}
	if len(reqs) == 0 {
		return nil
	}
	m.Rounds.Inc()
	m.Evaluations.Add(int64(len(reqs)))
	set, err := e.t.Runner.Execute(reqs)
	if err != nil {
		return err
	}
	for i, s := range slots {
		if s.base {
			e.base[s.p][s.cfg.HWPF] = set.Outcomes[i].Result.Cycles
		}
	}
	for i, s := range slots {
		if s.base {
			continue
		}
		e.speed[s.p][s.cfg] = e.base[s.p][s.cfg.HWPF] / set.Outcomes[i].Result.Cycles
		e.evals[s.p]++
	}
	return nil
}

// exhaustive scores the whole candidate grid in one batch and picks
// each pair's best configuration in tie-break order.
func (e *evaluator) exhaustive() ([]Config, error) {
	configs := e.space.Configs()
	cells := make([]cell, 0, len(e.pairs)*len(configs))
	for p := range e.pairs {
		for _, cfg := range configs {
			cells = append(cells, cell{p, cfg})
		}
	}
	if err := e.run(cells); err != nil {
		return nil, err
	}
	best := make([]Config, len(e.pairs))
	for p := range e.pairs {
		best[p] = configs[0]
		for _, cfg := range configs[1:] {
			if e.speed[p][cfg] > e.speed[p][best[p]] {
				best[p] = cfg
			}
		}
	}
	return best, nil
}

// hillclimb coordinate-descends every pair simultaneously: start at
// the look-ahead nearest 64 (the paper's sweet spot on most systems)
// and the first value of each other ladder, then repeatedly sweep the
// axes, batching all pairs' proposals for one axis into a single
// evaluation round and moving each pair on strict improvement. After
// convergence the full look-ahead curve at each pair's final
// coordinates is completed, so the report's sensitivity curve is as
// informative as exhaustive's.
func (e *evaluator) hillclimb() ([]Config, error) {
	s := e.space
	start := Config{C: nearest(s.Cs, 64), Depth: s.Depths[0], Hoist: s.Hoists[0], HWPF: s.HWPFs[0]}
	cur := make([]Config, len(e.pairs))
	cells := make([]cell, 0, len(e.pairs))
	for p := range e.pairs {
		cur[p] = start
		cells = append(cells, cell{p, start})
	}
	if err := e.run(cells); err != nil {
		return nil, err
	}

	// axes proposes each pair's alternatives along one coordinate.
	axes := []func(cfg Config) []Config{
		func(cfg Config) []Config {
			out := make([]Config, 0, len(s.Cs))
			for _, c := range s.Cs {
				out = append(out, Config{C: c, Depth: cfg.Depth, Hoist: cfg.Hoist, HWPF: cfg.HWPF})
			}
			return out
		},
		func(cfg Config) []Config {
			out := make([]Config, 0, len(s.Depths))
			for _, d := range s.Depths {
				out = append(out, Config{C: cfg.C, Depth: d, Hoist: cfg.Hoist, HWPF: cfg.HWPF})
			}
			return out
		},
		func(cfg Config) []Config {
			out := make([]Config, 0, len(s.Hoists))
			for _, h := range s.Hoists {
				out = append(out, Config{C: cfg.C, Depth: cfg.Depth, Hoist: h, HWPF: cfg.HWPF})
			}
			return out
		},
		func(cfg Config) []Config {
			out := make([]Config, 0, len(s.HWPFs))
			for _, hw := range s.HWPFs {
				out = append(out, Config{C: cfg.C, Depth: cfg.Depth, Hoist: cfg.Hoist, HWPF: hw})
			}
			return out
		},
	}
	for range maxRounds {
		moved := false
		for _, axis := range axes {
			cells = cells[:0]
			for p := range e.pairs {
				for _, cfg := range axis(cur[p]) {
					if cfg != cur[p] {
						cells = append(cells, cell{p, cfg})
					}
				}
			}
			if err := e.run(cells); err != nil {
				return nil, err
			}
			for p := range e.pairs {
				best := cur[p]
				for _, cfg := range axis(cur[p]) {
					// Strict improvement only: ties keep the earlier
					// position, so the walk is deterministic and
					// terminates.
					if e.speed[p][cfg] > e.speed[p][best] {
						best = cfg
					}
				}
				if best != cur[p] {
					cur[p] = best
					moved = true
				}
			}
		}
		if !moved {
			break
		}
	}

	// Complete each pair's look-ahead curve at its final coordinates.
	cells = cells[:0]
	for p := range e.pairs {
		for _, c := range s.Cs {
			cells = append(cells, cell{p, Config{C: c, Depth: cur[p].Depth, Hoist: cur[p].Hoist, HWPF: cur[p].HWPF}})
		}
	}
	if err := e.run(cells); err != nil {
		return nil, err
	}
	// Report the curve's argmax (ties to the smallest look-ahead): it
	// dominates the walk's endpoint, and it keeps "best" consistent
	// with the emitted curve.
	best := make([]Config, len(e.pairs))
	for p := range e.pairs {
		best[p] = Config{C: s.Cs[0], Depth: cur[p].Depth, Hoist: cur[p].Hoist, HWPF: cur[p].HWPF}
		for _, c := range s.Cs[1:] {
			cfg := Config{C: c, Depth: cur[p].Depth, Hoist: cur[p].Hoist, HWPF: cur[p].HWPF}
			if e.speed[p][cfg] > e.speed[p][best[p]] {
				best[p] = cfg
			}
		}
	}
	return best, nil
}

// nearest returns the ladder value closest to target (ties to the
// smaller value; the ladder is sorted ascending).
func nearest(ladder []int64, target int64) int64 {
	best := ladder[0]
	for _, v := range ladder[1:] {
		if abs(v-target) < abs(best-target) {
			best = v
		}
	}
	return best
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// report assembles the final report: one result per pair in selection
// order, each with its best configuration and its look-ahead
// sensitivity curve at the best configuration's other coordinates.
func (e *evaluator) report(spec Spec, best []Config) *Report {
	r := &Report{
		Quality:  spec.QualityName(),
		Variant:  string(e.space.Variant),
		Strategy: string(e.space.Strategy),
	}
	for p, pr := range e.pairs {
		res := Result{
			Workload: pr.w.Name,
			System:   pr.sys.Name,
			Best:     best[p],
			Speedup:  e.speed[p][best[p]],
			Baseline: e.base[p][best[p].HWPF],
			Evals:    e.evals[p],
		}
		for _, c := range e.space.Cs {
			cfg := Config{C: c, Depth: best[p].Depth, Hoist: best[p].Hoist, HWPF: best[p].HWPF}
			if sp, ok := e.speed[p][cfg]; ok {
				res.Curve = append(res.Curve, CurvePoint{C: c, Speedup: sp})
			}
		}
		r.Results = append(r.Results, res)
	}
	return r
}
