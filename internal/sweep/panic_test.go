package sweep

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// poisoned is A53 with a 48-byte L1 line: sim.Config.Validate rejects
// it, so sim.NewHierarchy panics on it.
func poisoned() *sim.Config {
	cfg := uarch.A53()
	cfg.Name = "A53-line48"
	cfg.Caches[0].LineSize = 48
	return cfg
}

// TestPanickingCellFailsAlone: a cell whose machine configuration makes
// the simulator panic fails with the panic value as its error, and the
// sweep goes on. A poison direct cell and a poison later cell of a
// replay group fail alone; a poison first cell fails its whole group,
// like a recording error. Every other cell equals a clean run's.
func TestPanickingCellFailsAlone(t *testing.T) {
	ws := workloads.Tiny()
	is, cg := ws[0], ws[1]
	a53, haswell, bad := uarch.A53(), uarch.Haswell(), poisoned()
	plain, auto, replay := core.VariantPlain, core.VariantAuto, core.ExecReplay
	reqs := []Request{
		{Workload: is, System: a53, Variant: plain},
		{Workload: is, System: bad, Variant: plain},                   // poison direct
		{Workload: cg, System: bad, Variant: plain, Exec: replay},     // poison first of its group
		{Workload: cg, System: a53, Variant: plain, Exec: replay},     // fails with its group
		{Workload: cg, System: haswell, Variant: plain, Exec: replay}, // fails with its group
		{Workload: is, System: a53, Variant: auto, Exec: replay},
		{Workload: is, System: bad, Variant: auto, Exec: replay}, // poison later in its group
		{Workload: is, System: haswell, Variant: auto, Exec: replay},
		{Workload: is, System: haswell, Variant: plain},
	}
	poison := map[int]bool{1: true, 2: true, 3: true, 4: true, 6: true}
	var clean []Request
	for i, r := range reqs {
		if !poison[i] {
			clean = append(clean, r)
		}
	}
	want, err := Runner{Jobs: 1}.Execute(clean)
	if err != nil {
		t.Fatal(err)
	}

	for _, jobs := range []int{1, 2} {
		set, err := Runner{Jobs: jobs}.Execute(reqs)
		if err == nil {
			t.Fatalf("jobs %d: sweep with poison cells returned no error", jobs)
		}
		got, j := set.Records(), 0
		for i, rec := range got {
			if poison[i] {
				if !strings.Contains(rec.Err, "panic: "+bad.Validate().Error()) {
					t.Errorf("jobs %d: cell %d error %q does not carry the panic value", jobs, i, rec.Err)
				}
				continue
			}
			if w := want.Records()[j]; rec != w {
				t.Errorf("jobs %d: cell %d = %+v, clean run %+v", jobs, i, rec, w)
			}
			j++
		}
	}
}
