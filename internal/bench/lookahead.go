package bench

import (
	"fmt"
	"strings"

	"repro/internal/sweep"
	"repro/internal/tune"
)

// LookaheadWorkloads is the default workload selection of the
// look-ahead sensitivity figure — the four benchmarks figure 6 plots.
const LookaheadWorkloads = "IS,CG,RA,HJ-2"

// FigLookahead is the tuner's look-ahead sensitivity figure: for each
// selected workload × system pair, speedup of the auto variant over
// the no-prefetch baseline at every look-ahead of the default search
// ladder, plus the tuned optimum. It is figure 6 rebuilt by the
// optimizer (internal/tune): one exhaustive search produces both the
// curve and the best column. The tuner reads its cells through the
// figure's Lookup, so they join the one experiment matrix like any
// other figure's; the exhaustive search reads every candidate
// whatever the results.
//
// Empty selections mean the figure-6 workloads on all four systems;
// both accept the sweep axis grammar ("IS,RA" / "A53,Haswell").
func FigLookahead(benchNames, systemNames string) Figure {
	if strings.TrimSpace(benchNames) == "" {
		benchNames = LookaheadWorkloads
	}
	return func(q Quality, get Lookup) (*Table, error) {
		sp := tune.Spec{}
		sp.Quality = q.PoolName()
		sp.Workloads = benchNames
		sp.Systems = systemNames
		rep, err := tune.Tuner{Runner: get}.Run(sp)
		if err != nil {
			return nil, err
		}

		cols := []string{"benchmark", "system"}
		for _, c := range tune.DefaultCs {
			cols = append(cols, fmt.Sprintf("c=%d", c))
		}
		cols = append(cols, "best c", "best")
		t := &Table{
			Title:   "Look-ahead sensitivity: tuned speedup vs c (auto)",
			Columns: cols,
			Note:    "paper §5.2: the optimum is interior — too small arrives late, too big pollutes/evicts; c=64 is near-best on most systems",
		}
		for _, res := range rep.Results {
			row := []string{res.Workload, res.System}
			for _, pt := range res.Curve {
				row = append(row, f2(pt.Speedup))
			}
			row = append(row, fmt.Sprintf("%d", res.Best.C), f2(res.Speedup))
			t.AddRow(row...)
		}
		return t, nil
	}
}

// Execute answers a batch through the lookup. It makes a Lookup a
// tune.Runner, so the look-ahead figure's tuner reads the matrix.
func (get Lookup) Execute(reqs []sweep.Request) (*sweep.ResultSet, error) {
	set := &sweep.ResultSet{Outcomes: make([]sweep.Outcome, len(reqs))}
	for i, r := range reqs {
		set.Outcomes[i] = sweep.Outcome{Request: r, Result: get(r.Workload, r.System, r.Variant, r.Options)}
	}
	return set, nil
}
