package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// Suite regenerates evaluation figures at one quality setting. The
// cells of every selected figure run as one deduplicated sweep across
// Jobs worker goroutines. Per-cell statistics are bit-identical for
// any worker count, so tables never depend on Jobs.
type Suite struct {
	Q Quality
	// Jobs is the sweep worker count; <= 0 selects GOMAXPROCS.
	Jobs int
	// Cache, when non-nil, is a persistent result store (see
	// internal/store): figure cells already cached are served from
	// disk, and fresh cells are persisted as they complete.
	Cache sweep.Cache
	// OnPutError receives cache-persistence failures (see
	// sweep.Runner.OnPutError); nil ignores them.
	OnPutError func(sweep.Request, error)
}

// Run builds the figures' tables, in order, from one sweep:
//
//  1. every figure runs against a recorder, which notes the cells it
//     reads and answers placeholders;
//  2. the recorded cells are deduplicated by fleet.KeyOf;
//  3. they run in one sweep.Runner.Execute;
//  4. every figure runs again, reading the executed results.
//
// A figure's error (an unknown system or benchmark) surfaces in step
// 1, before anything is simulated; a failed cell fails the whole run
// with sweep.Runner.Execute's first error in request order.
func (s Suite) Run(figs ...Figure) ([]*Table, error) {
	m, err := plan(s.Q, figs)
	if err != nil {
		return nil, err
	}
	if err := m.run(sweep.Runner{Jobs: s.Jobs, Cache: s.Cache, OnPutError: s.OnPutError}); err != nil {
		return nil, err
	}
	return m.render(s.Q, figs)
}

// matrix is the deduplicated cell list a figure selection reads and,
// once run, the cells' results.
type matrix struct {
	reqs []sweep.Request
	at   map[string]int // fleet.KeyOf(req) -> index into reqs
	res  []*core.Result // positional with reqs; nil until run
}

// plan records the cells the figures read.
func plan(q Quality, figs []Figure) (*matrix, error) {
	m := &matrix{at: make(map[string]int)}
	record := func(w *workloads.Workload, cfg *sim.Config, v core.Variant, o core.Options) *core.Result {
		req := sweep.Request{Workload: w, System: cfg, Variant: v, Options: o}
		k := fleet.KeyOf(req)
		if _, ok := m.at[k]; !ok {
			m.at[k] = len(m.reqs)
			m.reqs = append(m.reqs, req)
		}
		return &core.Result{}
	}
	for _, f := range figs {
		if _, err := f(q, record); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// run executes the planned cells in one sweep.
func (m *matrix) run(r sweep.Runner) error {
	set, err := r.Execute(m.reqs)
	if err != nil {
		return err
	}
	m.res = set.Results()
	return nil
}

// render builds the figures' tables from the executed cells. A figure
// that reads a cell the plan never recorded read cells that depend on
// results, and fails.
func (m *matrix) render(q Quality, figs []Figure) ([]*Table, error) {
	tables := make([]*Table, len(figs))
	for i, f := range figs {
		var missing error
		get := func(w *workloads.Workload, cfg *sim.Config, v core.Variant, o core.Options) *core.Result {
			if j, ok := m.at[fleet.KeyOf(sweep.Request{Workload: w, System: cfg, Variant: v, Options: o})]; ok {
				return m.res[j]
			}
			if missing == nil {
				missing = fmt.Errorf("bench: cell %s/%s/%s %+v was not planned: a figure's cells must not depend on results",
					w.Name, cfg.Name, v, o)
			}
			return &core.Result{}
		}
		t, err := f(q, get)
		if err == nil {
			err = missing
		}
		if err != nil {
			return nil, err
		}
		tables[i] = t
	}
	return tables, nil
}

// experiments lists swpfbench's -exp selections in the order -exp all
// prints them.
var experiments = []string{"fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "swhw", "cores", "lookahead"}

// unrestricted maps the experiments that take no -system or -bench
// restriction to their one figure.
var unrestricted = map[string]Figure{
	"fig2": Fig2, "fig5": Fig5, "fig7": Fig7, "fig8": Fig8, "fig9": Fig9, "fig10": Fig10, "cores": FigCores,
}

// Select returns the figures one -exp selection names, in print order.
// system restricts fig4 and swhw to one machine and bench restricts
// fig6 to one benchmark; lookahead takes both as lists. "all" selects
// every experiment without restriction.
func Select(exp, system, bench string) ([]Figure, error) {
	// each returns fig of the chosen name, or of every name.
	each := func(fig func(string) Figure, chosen string, names ...string) []Figure {
		if chosen != "" {
			names = []string{chosen}
		}
		figs := make([]Figure, len(names))
		for i, name := range names {
			figs[i] = fig(name)
		}
		return figs
	}
	var machines []string
	for _, cfg := range systems() {
		machines = append(machines, cfg.Name)
	}
	switch exp {
	case "all":
		var figs []Figure
		for _, e := range experiments {
			f, _ := Select(e, "", "") // every listed experiment is known
			figs = append(figs, f...)
		}
		return figs, nil
	case "fig4":
		return each(Fig4, system, machines...), nil
	case "fig6":
		return each(Fig6, bench, "IS", "CG", "RA", "HJ-2"), nil
	case "swhw":
		return each(FigSWHW, system, machines...), nil
	case "lookahead":
		return []Figure{FigLookahead(bench, system)}, nil
	}
	if f, ok := unrestricted[exp]; ok {
		return []Figure{f}, nil
	}
	return nil, fmt.Errorf("unknown experiment %q", exp)
}
