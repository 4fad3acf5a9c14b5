package main

import (
	"math"

	"repro/internal/core"
	"repro/internal/sweep"
)

// fig4Paper is the geometric-mean speed-up of the automatic pass over
// plain code on each Table 1 machine, from figure 4 of Ainsworth &
// Jones, "Software Prefetching for Indirect Memory Accesses", CGO 2017.
// The paper's abstract states the same averages: 1.3x on Haswell, 2.7x
// on Xeon Phi, 1.1x on Cortex-A57 and 2.1x on Cortex-A53.
var fig4Paper = []struct {
	machine string
	auto    float64
}{
	{"Haswell", 1.3},
	{"XeonPhi", 2.7},
	{"A57", 1.1},
	{"A53", 2.1},
}

// fig4Row is one machine's reproduced auto-over-plain geomean beside
// the paper's.
type fig4Row struct {
	machine      string
	reproduced   float64
	paper        float64
	absErrPct    float64 // |reproduced - paper| / paper, in %
	numWorkloads int
}

// fig4 compares the reproduced geomeans of the machines a result set
// covers with the paper's, and returns the rows plus the mean absolute
// error in %.
func fig4(set *sweep.ResultSet) ([]fig4Row, float64) {
	var rows []fig4Row
	var sum float64
	for _, p := range fig4Paper {
		sp := set.Speedups(p.machine, core.VariantPlain, core.VariantAuto)
		if len(sp) == 0 {
			continue
		}
		g := sweep.Geomean(sp)
		e := 100 * math.Abs(g-p.auto) / p.auto
		rows = append(rows, fig4Row{p.machine, g, p.auto, e, len(sp)})
		sum += e
	}
	if len(rows) == 0 {
		return nil, 0
	}
	return rows, sum / float64(len(rows))
}
