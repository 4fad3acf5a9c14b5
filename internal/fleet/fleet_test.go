package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// tinyReqs builds a small request list over the tiny workload pool:
// nWorkloads × {A53} × {plain, auto}.
func tinyReqs(t *testing.T, nWorkloads int, exec core.ExecMode) ([]sweep.Request, []CellSpec) {
	t.Helper()
	pool := tinyPool()
	if nWorkloads > len(pool) {
		t.Fatalf("want %d workloads, tiny pool has %d", nWorkloads, len(pool))
	}
	g := sweep.Grid{
		Workloads: pool[:nWorkloads],
		Systems:   []*sim.Config{uarch.A53()},
		Variants:  []core.Variant{core.VariantPlain, core.VariantAuto},
		Options:   core.Options{C: 8},
		Execs:     []core.ExecMode{exec},
	}
	reqs := g.Expand()
	specs := make([]CellSpec, len(reqs))
	for i, r := range reqs {
		specs[i] = SpecFor("tiny", r)
	}
	return reqs, specs
}

// submitted is a submission's outcome as its onDone callback delivers
// it: done closes when the set arrives, and a second call panics.
type submitted struct {
	done chan struct{}
	set  *sweep.ResultSet
}

// submit submits requests drawn from the tiny pool.
func submit(q *Queue, reqs []sweep.Request, prio int) (*submitted, error) {
	s := &submitted{done: make(chan struct{})}
	err := q.Submit(reqs, "tiny", prio, nil, func(set *sweep.ResultSet) {
		s.set = set
		close(s.done)
	})
	return s, err
}

// The tiny pool is constructed once — building workloads generates
// input data.
var tinyPool = sync.OnceValue(workloads.Tiny)

// fakeResult fabricates a distinct result payload for a cell.
func fakeResult(i int) *core.ResultData {
	return &core.ResultData{Checksum: int64(1000 + i), Cycles: float64(i) + 0.5}
}

// leaseNow leases what is pending without waiting: LeaseWait under a
// context that has already ended.
func leaseNow(q *Queue, worker string, max int) *Lease {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return q.LeaseWait(ctx, worker, max)
}

// completeAll leases everything with one worker and completes each
// lease with fabricated results; returns distinct cells completed.
func completeAll(t *testing.T, q *Queue, worker string) int {
	t.Helper()
	n := 0
	for {
		l := leaseNow(q, worker, 64)
		if l == nil {
			return n
		}
		var res []CellResult
		for i, c := range l.Cells {
			res = append(res, CellResult{Key: c.Key, Result: fakeResult(n + i)})
		}
		acc, dropped := q.Complete(l.ID, worker, res)
		if acc != len(res) || dropped != 0 {
			t.Fatalf("Complete accepted %d dropped %d, want %d/0", acc, dropped, len(res))
		}
		n += acc
	}
}

// TestSubmitDedupe: overlapping submissions share cells; each submission
// still gets every outcome, and the queue completes each distinct cell
// once.
func TestSubmitDedupe(t *testing.T) {
	q := New(Options{})
	reqs, _ := tinyReqs(t, 2, core.ExecDirect)

	t1, err := submit(q, reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := submit(q, reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Pending != len(reqs) || st.DedupHits != int64(len(reqs)) {
		t.Fatalf("after overlap: pending %d dedup %d, want %d/%d", st.Pending, st.DedupHits, len(reqs), len(reqs))
	}

	if n := completeAll(t, q, "w1"); n != len(reqs) {
		t.Fatalf("completed %d distinct cells, want %d", n, len(reqs))
	}
	for _, tk := range []*submitted{t1, t2} {
		select {
		case <-tk.done:
		default:
			t.Fatal("submission not finished after completing every cell")
		}
		if len(tk.set.Outcomes) != len(reqs) {
			t.Fatalf("result set has %d outcomes, want %d", len(tk.set.Outcomes), len(reqs))
		}
		if err := tk.set.Err(); err != nil {
			t.Fatal(err)
		}
	}
	s1, s2 := t1.set, t2.set
	for i := range s1.Outcomes {
		if s1.Outcomes[i].Result != s2.Outcomes[i].Result {
			t.Fatalf("outcome %d: submissions did not share the single computed result", i)
		}
	}
}

// TestPriorities: higher-priority submissions lease first; FIFO within
// a priority; a shared cell is promoted to the highest priority asked.
func TestPriorities(t *testing.T) {
	q := New(Options{})
	reqs, _ := tinyReqs(t, 3, core.ExecDirect)

	lo := reqs[:2]
	hi := reqs[2:4]
	promoted := reqs[:1] // resubmitted at high priority below

	if _, err := submit(q, lo, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := submit(q, hi, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := submit(q, promoted, 9); err != nil {
		t.Fatal(err)
	}

	want := []string{KeyOf(promoted[0]), KeyOf(hi[0]), KeyOf(hi[1]), KeyOf(lo[1])}
	var got []string
	for {
		l := leaseNow(q, "w", 1)
		if l == nil {
			break
		}
		for _, c := range l.Cells {
			got = append(got, c.Key)
		}
		var res []CellResult
		for _, c := range l.Cells {
			res = append(res, CellResult{Key: c.Key, Result: fakeResult(0)})
		}
		q.Complete(l.ID, "w", res)
	}
	if len(got) != len(want) {
		t.Fatalf("leased %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lease order[%d] = %s, want %s", i, got[i][:12], want[i][:12])
		}
	}
}

// TestQueueFull: admission is atomic — a submission over the bound
// enqueues nothing, and the error names the numbers.
func TestQueueFull(t *testing.T) {
	q := New(Options{MaxPending: 2})
	reqs, _ := tinyReqs(t, 2, core.ExecDirect) // 4 cells
	_, err := submit(q, reqs, 0)
	var full ErrQueueFull
	if !errors.As(err, &full) {
		t.Fatalf("Submit over bound = %v, want ErrQueueFull", err)
	}
	if full.Limit != 2 || full.New != 4 || full.Live != 0 {
		t.Fatalf("ErrQueueFull fields wrong: %+v", full)
	}
	if st := q.Stats(); st.Pending != 0 {
		t.Fatalf("failed submission enqueued %d cells", st.Pending)
	}

	// Under the bound it admits; a duplicate submission adds no load
	// and is admitted even at the bound.
	if _, err := submit(q, reqs[:2], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := submit(q, reqs[:2], 0); err != nil {
		t.Fatalf("duplicate submission rejected at the bound: %v", err)
	}
	if _, err := submit(q, reqs[2:3], 0); err == nil {
		t.Fatal("submission adding a cell past the bound accepted")
	}
}

// TestLeaseExpiryRequeues: a dead worker's cells return to the queue
// after TTL; its late completion is dropped, the re-lease's accepted —
// each cell delivered exactly once.
func TestLeaseExpiryRequeues(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	q := New(Options{LeaseTTL: time.Second, Now: clock})
	reqs, _ := tinyReqs(t, 1, core.ExecDirect)

	tk, err := submit(q, reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	dead := leaseNow(q, "dead", 64)
	if dead == nil || len(dead.Cells) != len(reqs) {
		t.Fatalf("first lease missing cells: %+v", dead)
	}
	if leaseNow(q, "live", 64) != nil {
		t.Fatal("second worker leased cells that are already out")
	}

	now = now.Add(1500 * time.Millisecond) // past TTL
	release := leaseNow(q, "live", 64)
	if release == nil || len(release.Cells) != len(reqs) {
		t.Fatalf("expired cells not re-leased: %+v", release)
	}
	if st := q.Stats(); st.Requeued != int64(len(reqs)) {
		t.Fatalf("requeued = %d, want %d", st.Requeued, len(reqs))
	}

	// The dead worker wakes up and reports anyway: all dropped.
	var late []CellResult
	for i, c := range dead.Cells {
		late = append(late, CellResult{Key: c.Key, Result: fakeResult(i)})
	}
	if acc, dropped := q.Complete(dead.ID, "dead", late); acc != 0 || dropped != len(reqs) {
		t.Fatalf("late completion accepted %d dropped %d, want 0/%d", acc, dropped, len(reqs))
	}

	var res []CellResult
	for i, c := range release.Cells {
		res = append(res, CellResult{Key: c.Key, Result: fakeResult(100 + i)})
	}
	if acc, dropped := q.Complete(release.ID, "live", res); acc != len(reqs) || dropped != 0 {
		t.Fatalf("re-lease completion accepted %d dropped %d", acc, dropped)
	}
	select {
	case <-tk.done:
	default:
		t.Fatal("submission unfinished after re-lease completion")
	}
	set := tk.set
	for i := range set.Outcomes {
		if set.Outcomes[i].Result == nil || set.Outcomes[i].Result.Checksum < 1100 {
			t.Fatalf("outcome %d did not come from the live worker: %+v", i, set.Outcomes[i].Result)
		}
	}
}

// TestExpiryLimitFailsCell: a cell whose lease expires MaxExpiries
// times fails, with an error naming the attempts and the last worker,
// instead of being requeued again; nothing is persisted, and a later
// submission of the cell starts afresh.
func TestExpiryLimitFailsCell(t *testing.T) {
	now := time.Unix(0, 0)
	cache := &countingCache{}
	q := New(Options{LeaseTTL: time.Second, Now: func() time.Time { return now }, Cache: cache})
	reqs, _ := tinyReqs(t, 1, core.ExecDirect)
	reqs = reqs[:1]

	tk, err := submit(q, reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= MaxExpiries; i++ {
		if l := leaseNow(q, fmt.Sprintf("doomed-%d", i), 8); l == nil || len(l.Cells) != 1 {
			t.Fatalf("attempt %d: lease %+v", i, l)
		}
		now = now.Add(1500 * time.Millisecond) // past the TTL
		q.Stats()                              // reaps the lease
	}
	select {
	case <-tk.done:
	default:
		t.Fatalf("submission unfinished after %d expiries", MaxExpiries)
	}
	err = tk.set.Outcomes[0].Err
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("after %d leases expired", MaxExpiries)) ||
		!strings.Contains(err.Error(), fmt.Sprintf("doomed-%d", MaxExpiries)) {
		t.Fatalf("abandoned cell error = %v, want the attempt count and the last worker", err)
	}
	st := q.Stats()
	if st.Pending != 0 || st.Leased != 0 || st.Failed != 1 || st.Requeued != MaxExpiries-1 {
		t.Errorf("stats after abandonment: %+v", st)
	}
	if leaseNow(q, "live", 8) != nil {
		t.Error("an abandoned cell was leased again")
	}

	tk, err = submit(q, reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := completeAll(t, q, "live"); n != 1 {
		t.Fatalf("resubmitted cell completed %d times", n)
	}
	<-tk.done
	if err := tk.set.Err(); err != nil {
		t.Errorf("resubmitted cell failed: %v", err)
	}
	if cache.puts != 1 {
		t.Errorf("store saw %d puts, want only the resubmitted cell's", cache.puts)
	}
}

// TestHeartbeatKeepsLease: heartbeats extend the deadline, and an
// expired lease answers false.
func TestHeartbeatKeepsLease(t *testing.T) {
	now := time.Unix(0, 0)
	q := New(Options{LeaseTTL: time.Second, Now: func() time.Time { return now }})
	reqs, _ := tinyReqs(t, 1, core.ExecDirect)
	if _, err := submit(q, reqs, 0); err != nil {
		t.Fatal(err)
	}
	l := leaseNow(q, "w", 64)
	for i := 0; i < 5; i++ {
		now = now.Add(700 * time.Millisecond)
		if !q.Heartbeat(l.ID, "w") {
			t.Fatalf("heartbeat %d lost a live lease", i)
		}
	}
	if st := q.Stats(); st.Requeued != 0 {
		t.Fatalf("heartbeated lease requeued %d cells", st.Requeued)
	}
	now = now.Add(2 * time.Second)
	if q.Heartbeat(l.ID, "w") {
		t.Fatal("heartbeat revived an expired lease")
	}
}

// TestReplayGroupLeasing: replay cells lease as whole (workload,
// variant, options) groups even when max is smaller, so one worker
// records each trace.
func TestReplayGroupLeasing(t *testing.T) {
	q := New(Options{})
	pool := tinyPool()
	g := sweep.Grid{
		Workloads: pool[:1],
		Systems:   uarch.All(), // 4 systems → group size 4 per variant
		Variants:  []core.Variant{core.VariantPlain, core.VariantAuto},
		Options:   core.Options{C: 8},
		Execs:     []core.ExecMode{core.ExecReplay},
	}
	reqs := g.Expand()
	if _, err := submit(q, reqs, 0); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		l := leaseNow(q, "w", 1)
		if l == nil {
			t.Fatalf("round %d: no lease", round)
		}
		if len(l.Cells) != 4 {
			t.Fatalf("round %d: replay lease has %d cells, want the whole 4-cell group", round, len(l.Cells))
		}
		variant := l.Cells[0].Spec.Variant
		for _, c := range l.Cells {
			if c.Spec.Variant != variant || c.Spec.Workload != l.Cells[0].Spec.Workload {
				t.Fatalf("round %d: lease mixes replay groups: %+v", round, l.Cells)
			}
		}
		var res []CellResult
		for i, c := range l.Cells {
			res = append(res, CellResult{Key: c.Key, Result: fakeResult(i)})
		}
		q.Complete(l.ID, "w", res)
	}
	if l := leaseNow(q, "w", 1); l != nil {
		t.Fatalf("queue not drained after two group leases: %+v", l)
	}
}

// countingCache records Get/Put traffic.
type countingCache struct {
	mu      sync.Mutex
	objects map[string]*core.Result
	puts    int
}

func (c *countingCache) Get(r sweep.Request) (*core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.objects[KeyOf(r)]
	return res, ok
}

func (c *countingCache) Put(r sweep.Request, res *core.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.objects == nil {
		c.objects = make(map[string]*core.Result)
	}
	c.objects[KeyOf(r)] = res
	c.puts++
	return nil
}

// TestCachePutOnce: completions persist each distinct cell exactly
// once, and a warm submission is answered entirely at submit time.
func TestCachePutOnce(t *testing.T) {
	cache := &countingCache{}
	q := New(Options{Cache: cache})
	reqs, _ := tinyReqs(t, 2, core.ExecDirect)

	// Two overlapping submissions, then drain.
	if _, err := submit(q, reqs, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := submit(q, reqs, 0); err != nil {
		t.Fatal(err)
	}
	completeAll(t, q, "w")
	if cache.puts != len(reqs) {
		t.Fatalf("cache saw %d puts for %d distinct cells", cache.puts, len(reqs))
	}

	// Warm: the submission finishes inside Submit, no cells enqueued.
	tk, err := submit(q, reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.done:
	default:
		t.Fatal("warm submission not finished at submit")
	}
	if st := q.Stats(); st.Pending != 0 || st.CacheHits != int64(len(reqs)) {
		t.Fatalf("warm submission: pending %d cacheHits %d", st.Pending, st.CacheHits)
	}
}

// TestPartialReportRequeues: cells a completion omits go back to the
// queue instead of being lost.
func TestPartialReportRequeues(t *testing.T) {
	q := New(Options{})
	reqs, _ := tinyReqs(t, 1, core.ExecDirect) // 2 cells
	tk, err := submit(q, reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := leaseNow(q, "w", 64)
	if len(l.Cells) != 2 {
		t.Fatalf("leased %d cells, want 2", len(l.Cells))
	}
	q.Complete(l.ID, "w", []CellResult{{Key: l.Cells[0].Key, Result: fakeResult(0)}})
	if st := q.Stats(); st.Pending != 1 || st.Requeued != 1 {
		t.Fatalf("omitted cell not requeued: %+v", st)
	}
	completeAll(t, q, "w")
	select {
	case <-tk.done:
	default:
		t.Fatal("submission unfinished after requeue drain")
	}
}

// TestErrorCellsFailWaiters: a cell completed with an error reaches
// every waiting submission as that cell's error.
func TestErrorCellsFailWaiters(t *testing.T) {
	q := New(Options{})
	reqs, _ := tinyReqs(t, 1, core.ExecDirect)
	tk, err := submit(q, reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := leaseNow(q, "w", 64)
	var res []CellResult
	for _, c := range l.Cells {
		res = append(res, CellResult{Key: c.Key, Err: "simulated crash"})
	}
	q.Complete(l.ID, "w", res)
	<-tk.done
	if err := tk.set.Err(); err == nil || !strings.Contains(err.Error(), "simulated crash") {
		t.Fatalf("submission error = %v, want the worker's message", err)
	}
	if st := q.Stats(); st.Failed != int64(len(reqs)) {
		t.Fatalf("failed counter = %d, want %d", st.Failed, len(reqs))
	}
}

// TestCellSpecRoundTrip: a spec reconstructs a request with the same
// cell key on the worker side.
func TestCellSpecRoundTrip(t *testing.T) {
	reqs, specs := tinyReqs(t, 1, core.ExecReplay)
	configs := make(map[string]*sim.Config)
	var system *sim.Config
	for i, sp := range specs {
		got, err := sp.Request(configs)
		if err != nil {
			t.Fatal(err)
		}
		if KeyOf(got) != KeyOf(reqs[i]) {
			t.Fatalf("spec %d round-trips to a different cell key", i)
		}
		if got.Exec != core.ExecReplay {
			t.Fatalf("spec %d lost the exec mode: %q", i, got.Exec)
		}
		// Every cell is on A53: one decoded configuration serves all.
		if system == nil {
			system = got.System
		} else if got.System != system {
			t.Fatalf("spec %d decoded its machine again instead of sharing the interned one", i)
		}
	}
	if len(configs) != 1 {
		t.Fatalf("%d interned configurations for one machine", len(configs))
	}
}

// TestCellSpecRejectsBadSystem: a wire machine configuration that
// sim.Config.Validate rejects becomes the cell's error instead of
// reaching the simulator, which would panic on it.
func TestCellSpecRejectsBadSystem(t *testing.T) {
	reqs, _ := tinyReqs(t, 1, core.ExecDirect)
	bad := *reqs[0].System
	bad.Caches = append([]sim.CacheConfig(nil), bad.Caches...)
	bad.Caches[0].LineSize = 48
	reqs[0].System = &bad
	sp := SpecFor("tiny", reqs[0])
	if _, err := sp.Request(nil); err == nil || !strings.Contains(err.Error(), bad.Validate().Error()) {
		t.Fatalf("Request with a 48-byte L1 line = %v, want the validation error", err)
	}
}

// TestCellSpecRejectsSkew: a wire cell whose workload this process
// does not know, or knows with other parameters, is an error rather
// than the wrong experiment.
func TestCellSpecRejectsSkew(t *testing.T) {
	_, specs := tinyReqs(t, 1, core.ExecDirect)
	unknown, skewed := specs[0], specs[0]
	unknown.Workload = "NOPE"
	skewed.Params += ",extra=1"
	for _, tc := range []struct {
		sp   CellSpec
		want string
	}{{unknown, `unknown workload "NOPE" in the tiny pool`}, {skewed, "params mismatch"}} {
		if _, err := tc.sp.Request(nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Request(%s/%s) = %v, want %q", tc.sp.Workload, tc.sp.Params, err, tc.want)
		}
	}
}

// TestSubscribeStreamsProgress: a submission's progress callback sees
// every outcome, cache hits delivered inside Submit included, ending at
// done == total before onDone delivers the set.
func TestSubscribeStreamsProgress(t *testing.T) {
	cache := &countingCache{}
	q := New(Options{Cache: cache})
	reqs, _ := tinyReqs(t, 2, core.ExecDirect)
	cache.Put(reqs[0], &core.Result{Checksum: 1})

	var mu sync.Mutex
	var calls [][2]int
	var doneSeen bool
	finished := make(chan struct{})
	err := q.Submit(reqs, "tiny", 0, func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, [2]int{done, total})
	}, func(*sweep.ResultSet) {
		mu.Lock()
		defer mu.Unlock()
		doneSeen = calls[len(calls)-1][0] == len(reqs)
		close(finished)
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(calls) != 1 || calls[0] != [2]int{1, len(reqs)} {
		t.Fatalf("after Submit: progress calls %v, want the cache hit's [1 %d]", calls, len(reqs))
	}
	mu.Unlock()

	completeAll(t, q, "w")
	<-finished
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != len(reqs) || !doneSeen {
		t.Fatalf("progress calls %v (last done==total seen before onDone: %v), want one per cell", calls, doneSeen)
	}
	seen := make(map[int]bool)
	for _, c := range calls {
		if c[1] != len(reqs) || c[0] < 1 || c[0] > len(reqs) || seen[c[0]] {
			t.Fatalf("progress calls %v: want each count 1..%d once, total %d", calls, len(reqs), len(reqs))
		}
		seen[c[0]] = true
	}
}

// TestCellResultWire pins the completion report's JSON body byte for
// byte: field names and order are the wire format between workers and
// coordinators of different builds.
func TestCellResultWire(t *testing.T) {
	d := core.ResultData{
		Checksum: -7, Cycles: 1234.5,
		Stats:  interp.Stats{Cycles: 1234.5, Instructions: 11, Executed: 15, Loads: 12, Stores: 13, Prefetches: 14},
		L1Hits: 1, L1Misses: 2, DRAMAccesses: 3, SWPrefetches: 4, HWPrefetches: 5, HWPrefetchDropped: 6,
		TLBWalks: 7, LoadStallCycles: 8.25, PrefetchLateCycles: 9.5, PrefetchedUnusedL1: 10,
	}
	d.Stats.OpCounts[1] = 3
	for _, tc := range []struct {
		in   CellResult
		want string
	}{
		{CellResult{Key: "k1", Result: &d}, `{"key":"k1","result":{"Checksum":-7,"Cycles":1234.5,"Stats":{"Cycles":1234.5,"Instructions":11,"Executed":15,"OpCounts":[0,3,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"Loads":12,"Stores":13,"Prefetches":14},"L1Hits":1,"L1Misses":2,"DRAMAccesses":3,"SWPrefetches":4,"HWPrefetches":5,"HWPrefetchDropped":6,"TLBWalks":7,"LoadStallCycles":8.25,"PrefetchLateCycles":9.5,"PrefetchedUnusedL1":10}}`},
		{CellResult{Key: "k2", Err: "boom"}, `{"key":"k2","err":"boom"}`},
	} {
		got, err := json.Marshal(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("CellResult JSON:\n got %s\nwant %s", got, tc.want)
		}
	}
}
