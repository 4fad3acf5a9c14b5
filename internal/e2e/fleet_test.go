package e2e

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	cleanupBinaries()
	os.Exit(code)
}

// tinyPool mirrors the daemon's memoized tiny workload pool — the
// direct reference runs must hand the engine the same workloads the
// worker processes reconstruct.
var tinyPool = sync.OnceValue(workloads.Tiny)

// tinySpec is one grid over the tiny pool, expressed both as swpfctl
// flags and as a direct in-process run.
type tinySpec struct {
	workloads string // "" = all
	systems   string
	variants  string
}

func (sp tinySpec) flags() []string {
	args := []string{"-quality", "tiny", "-systems", sp.systems, "-variants", sp.variants}
	if sp.workloads != "" {
		args = append(args, "-workloads", sp.workloads)
	}
	return args
}

// grid resolves the spec exactly the way swpfd's submission validation
// does.
func (sp tinySpec) grid(t *testing.T) sweep.Grid {
	t.Helper()
	ws, err := sweep.SelectWorkloads(tinyPool(), sp.workloads)
	if err != nil {
		t.Fatal(err)
	}
	systems, err := sweep.ParseSystems(sp.systems)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := sweep.ParseVariants(sp.variants)
	if err != nil {
		t.Fatal(err)
	}
	return sweep.Grid{Workloads: ws, Systems: systems, Variants: vs}
}

// direct runs the spec on a single-node sweep.Runner — the ground
// truth every fleet answer must match byte for byte.
func (sp tinySpec) direct(t *testing.T) (csv, js string) {
	t.Helper()
	set, err := sweep.Runner{Jobs: 2}.Execute(sp.grid(t).Expand())
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	var c, j bytes.Buffer
	if err := set.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	if err := set.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	return c.String(), j.String()
}

// submitWait submits a spec through swpfctl with -wait and returns the
// job id.
func submitWait(f *Fleet, sp tinySpec) (string, error) {
	out, err := f.TrySwpfctl(append([]string{"submit", "-wait"}, sp.flags()...)...)
	if err != nil {
		return "", err
	}
	fields := strings.Fields(out)
	if len(fields) == 0 {
		return "", fmt.Errorf("submit printed nothing")
	}
	return fields[0], nil
}

// TestFleetByteIdentical is the tentpole acceptance test: a 3-worker
// fleet serving 6 concurrent overlapping grid submissions returns
// results byte-identical to a direct single-node run — cold (every
// distinct cell simulated exactly once fleet-wide, each persisted
// exactly once) and warm (second round entirely from the store, zero
// new simulations).
func TestFleetByteIdentical(t *testing.T) {
	f := StartFleet(t, FleetConfig{Workers: 3, StoreDir: t.TempDir()})

	// Six overlapping grids over three workloads: every pair plus every
	// single. Distinct cells: 3 workloads x 1 system x 2 variants = 6;
	// requested outcome slots: (2+2+2+1+1+1) x 2 = 18.
	specs := []tinySpec{
		{workloads: "IS,CG", systems: "A53", variants: "plain,auto"},
		{workloads: "CG,RA", systems: "A53", variants: "plain,auto"},
		{workloads: "IS,RA", systems: "A53", variants: "plain,auto"},
		{workloads: "IS", systems: "A53", variants: "plain,auto"},
		{workloads: "CG", systems: "A53", variants: "plain,auto"},
		{workloads: "RA", systems: "A53", variants: "plain,auto"},
	}
	const distinct = 6
	slots := 0
	for _, sp := range specs {
		slots += len(sp.grid(t).Expand())
	}

	runRound := func(round string) []string {
		ids := make([]string, len(specs))
		errs := make([]error, len(specs))
		var wg sync.WaitGroup
		for i, sp := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ids[i], errs[i] = submitWait(f, sp)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s submission %d: %v\ncoordinator stderr:\n%s", round, i, err, f.CoordinatorStderr())
			}
		}
		for i, sp := range specs {
			wantCSV, wantJSON := sp.direct(t)
			if got := f.Swpfctl("results", "-id", ids[i], "-format", "csv"); got != wantCSV {
				t.Errorf("%s job %s CSV differs from direct run:\n got: %q\nwant: %q", round, ids[i], got, wantCSV)
			}
			if got := f.Swpfctl("results", "-id", ids[i], "-format", "json"); got != wantJSON {
				t.Errorf("%s job %s JSON differs from direct run", round, ids[i])
			}
		}
		return ids
	}

	// Cold round: empty store, all six submitted concurrently.
	runRound("cold")
	fs := f.Stats()
	if fs.Store == nil {
		t.Fatal("no store stats on /fleet")
	}
	if fs.Store.Puts != distinct {
		t.Errorf("cold store puts = %d, want %d (exactly one simulation per distinct cell)", fs.Store.Puts, distinct)
	}
	if fs.Queue.Completed != distinct {
		t.Errorf("cold completed = %d, want %d", fs.Queue.Completed, distinct)
	}
	// Every requested slot beyond the distinct six was answered without
	// a simulation: either attached to the live cell or served from the
	// store.
	if got := fs.Queue.DedupHits + fs.Queue.CacheHits; got != int64(slots-distinct) {
		t.Errorf("cold dedup+cache hits = %d, want %d", got, slots-distinct)
	}
	if len(fs.Queue.Workers) != 3 {
		t.Errorf("fleet knows %d workers, want 3", len(fs.Queue.Workers))
	}

	// Warm round: same six grids again — the store answers everything,
	// no cell is ever re-simulated.
	runRound("warm")
	ws := f.Stats()
	if ws.Store.Puts != distinct {
		t.Errorf("warm store puts = %d, want still %d", ws.Store.Puts, distinct)
	}
	if ws.Queue.Completed != distinct {
		t.Errorf("warm completed = %d, want still %d", ws.Queue.Completed, distinct)
	}
	if got := ws.Queue.CacheHits - fs.Queue.CacheHits; got != int64(slots) {
		t.Errorf("warm round cache hits = %d, want %d (every slot from the store)", got, slots)
	}
}

// TestWorkerKillMidGrid is the fault-injection acceptance test: SIGKILL
// a worker while a grid is in flight. The fleet must drain the job —
// expired leases requeue, the survivors finish — with no cell lost
// (the job completes) and no cell simulated twice (store puts still
// equal distinct cells), and the results byte-identical to a direct
// run.
func TestWorkerKillMidGrid(t *testing.T) {
	f := StartFleet(t, FleetConfig{
		Workers:    1, // the victim; replacements join after the kill
		StoreDir:   t.TempDir(),
		LeaseTTL:   500 * time.Millisecond,
		LeaseBatch: 2,
	})

	// The whole tiny pool on two systems: 6 x 2 x 2 = 24 cells.
	sp := tinySpec{systems: "A53,Haswell", variants: "plain,auto"}
	cells := len(sp.grid(t).Expand())

	out := f.Swpfctl(append([]string{"submit"}, sp.flags()...)...)
	id := strings.Fields(out)[0]

	// Catch the worker provably mid-grid: freeze it with SIGSTOP, check
	// the coordinator still counts cells leased to it, and only then
	// SIGKILL. If the freeze landed between batches (nothing leased),
	// thaw and try again — this makes the fault deterministic instead
	// of a timing lottery.
	deadline := time.Now().Add(10 * time.Second)
	for {
		f.SignalWorker(0, syscall.SIGSTOP)
		if f.Stats().Queue.Leased > 0 {
			break
		}
		f.SignalWorker(0, syscall.SIGCONT)
		if time.Now().After(deadline) {
			t.Fatalf("never caught the worker holding a lease\ncoordinator stderr:\n%s", f.CoordinatorStderr())
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.KillWorker(0)

	// The killed worker took its leased cells down with it. Refill the
	// fleet: the replacements drain the queue, and the dead worker's
	// cells come back via lease expiry.
	f.AddWorker()
	f.AddWorker()

	// The job must still drain; -follow returns when it reaches a
	// terminal state.
	f.Swpfctl("status", "-follow", id)
	status := f.Swpfctl("status", id)
	want := fmt.Sprintf("%s\tdone\t%d/%d\n", id, cells, cells)
	if status != want {
		t.Fatalf("after worker kill, status = %q, want %q\ncoordinator stderr:\n%s", status, want, f.CoordinatorStderr())
	}

	wantCSV, _ := sp.direct(t)
	if got := f.Swpfctl("results", "-id", id, "-format", "csv"); got != wantCSV {
		t.Errorf("results after worker kill differ from direct run:\n got: %q\nwant: %q", got, wantCSV)
	}

	fs := f.Stats()
	if fs.Store.Puts != int64(cells) {
		t.Errorf("store puts = %d, want %d (no cell simulated twice, none lost)", fs.Store.Puts, cells)
	}
	if fs.Queue.Completed != int64(cells) {
		t.Errorf("completed = %d, want %d", fs.Queue.Completed, cells)
	}
	if fs.Queue.Pending != 0 || fs.Queue.Leased != 0 {
		t.Errorf("queue not drained: %d pending, %d leased", fs.Queue.Pending, fs.Queue.Leased)
	}
	// The freeze-then-kill sequence guarantees the victim died holding
	// cells, so lease expiry must have requeued them.
	if fs.Queue.Requeued == 0 {
		t.Error("worker died holding a lease but nothing was requeued")
	}
}

// TestObjectWritesRefused: no route writes an object into the
// coordinator's store by key. A PUT of a fabricated object under a
// cell's store key is refused, and a job over that cell still returns
// exactly what a direct run returns.
func TestObjectWritesRefused(t *testing.T) {
	f := StartFleet(t, FleetConfig{Workers: 1, StoreDir: t.TempDir()})

	sp := tinySpec{workloads: "IS", systems: "A53", variants: "plain"}
	// Keys depend on the request and the salt, not on the directory.
	keys, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := keys.Key(sp.grid(t).Expand()[0])
	forged := fmt.Sprintf(`{"Key":%q,"Result":{"Checksum":7,"Cycles":1}}`, key)
	req, err := http.NewRequest(http.MethodPut, f.URL+"/objects/"+key, strings.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /objects/{key} = %d, want 404 or 405", resp.StatusCode)
	}

	id, err := submitWait(f, sp)
	if err != nil {
		t.Fatalf("submit: %v\ncoordinator stderr:\n%s", err, f.CoordinatorStderr())
	}
	wantCSV, wantJSON := sp.direct(t)
	if got := f.Swpfctl("results", "-id", id, "-format", "csv"); got != wantCSV {
		t.Errorf("results differ from direct run:\n got: %q\nwant: %q", got, wantCSV)
	}
	if got := f.Swpfctl("results", "-id", id, "-format", "json"); got != wantJSON {
		t.Errorf("JSON results differ from direct run:\n got: %q\nwant: %q", got, wantJSON)
	}
}
