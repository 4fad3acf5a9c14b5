package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// once is a lease source for fleetWorker.serve that yields one lease.
func once(l *fleet.Lease, rid string) func() (*fleet.Lease, string) {
	done := false
	return func() (*fleet.Lease, string) {
		if done {
			return nil, ""
		}
		done = true
		return l, rid
	}
}

// reportSink is a coordinator that only records completion reports; the
// tests hand the worker its leases through serve.
type reportSink struct {
	mu      sync.Mutex
	reports map[string][]fleet.CellResult
}

func (c *reportSink) LeaseWait(context.Context, string, int) *fleet.Lease { return nil }
func (c *reportSink) Heartbeat(string, string) bool                       { return true }
func (c *reportSink) Complete(id, _ string, results []fleet.CellResult) (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reports[id] = results
	return len(results), 0
}

// totalAlloc returns the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestWorkerReusesSimulatorsAcrossLeases: a worker serving consecutive
// leases over the same machine builds its simulator for the first lease
// only. The machine arrives as fresh wire bytes in each lease, so a
// later lease reuses the simulator only if the worker interns
// configurations for its lifetime and its sweep goroutine keeps its
// context across leases. A warm-up lease on another machine builds the
// kernel and the workload pool first, so what the first Haswell lease
// allocates exceeds a later one's by the simulator alone. Allocation is
// counted process-wide, so the later leases' least is compared: stray
// work elsewhere in the process can only add to a lease's count.
func TestWorkerReusesSimulatorsAcrossLeases(t *testing.T) {
	is := workloads.Tiny()[0]
	lease := func(id string, cfg *sim.Config) *fleet.Lease {
		spec := fleet.SpecFor("tiny", sweep.Request{Workload: is, System: cfg, Variant: core.VariantPlain})
		return &fleet.Lease{ID: id, TTLMS: 60_000, Cells: []fleet.LeaseCell{{Key: id + "-cell", Spec: spec}}}
	}
	leases := []*fleet.Lease{lease("warm", uarch.A53()), lease("first", uarch.Haswell())}
	for i := 0; i < 3; i++ {
		leases = append(leases, lease(fmt.Sprint("again-", i), uarch.Haswell()))
	}

	sink := &reportSink{reports: make(map[string][]fleet.CellResult)}
	w := &fleetWorker{coord: sink, name: "w", batch: 1, runner: sweep.Runner{Jobs: 1}, log: obs.Discard()}
	// With one sweep goroutine, each call of next comes after the
	// previous lease's cells have run.
	var marks []uint64
	w.serve(func() (*fleet.Lease, string) {
		marks = append(marks, totalAlloc())
		if len(marks) > len(leases) {
			return nil, ""
		}
		return leases[len(marks)-1], fmt.Sprint("rid-", len(marks))
	})

	for _, l := range leases {
		rep := sink.reports[l.ID]
		if len(rep) != 1 || rep[0].Err != "" || rep[0].Result == nil {
			t.Fatalf("lease %s reported %+v", l.ID, rep)
		}
	}
	for _, l := range leases[2:] {
		if *sink.reports[l.ID][0].Result != *sink.reports["first"][0].Result {
			t.Errorf("lease %s reported a result other than the first Haswell lease's", l.ID)
		}
	}
	before := totalAlloc()
	runtime.KeepAlive(sim.NewCoreModel(uarch.Haswell()))
	simBytes := totalAlloc() - before
	first, later := marks[2]-marks[1], marks[3]-marks[2]
	for i := 4; i < len(marks); i++ {
		later = min(later, marks[i]-marks[i-1])
	}
	if later+simBytes/2 > first {
		t.Errorf("a later lease allocated %d B against the first's %d B, though a Haswell simulator is %d B: the worker rebuilt its simulator",
			later, first, simBytes)
	}
}
