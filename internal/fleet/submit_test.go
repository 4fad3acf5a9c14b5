package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// TestOnDoneAfterLastProgress: onDone runs exactly once, right after
// the onProgress call that reaches done == total, with a set that
// carries every outcome: the results of the cells a worker completes
// and the error of the cell it fails.
func TestOnDoneAfterLastProgress(t *testing.T) {
	q := New(Options{})
	reqs, _ := tinyReqs(t, 2, core.ExecDirect) // 4 cells
	var mu sync.Mutex
	var calls []string
	var set *sweep.ResultSet
	err := q.Submit(reqs, "tiny", 0, func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, fmt.Sprintf("%d/%d", done, total))
	}, func(s *sweep.ResultSet) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, "done")
		set = s
	})
	if err != nil {
		t.Fatal(err)
	}

	l := leaseNow(q, "w", 64)
	if l == nil || len(l.Cells) != len(reqs) {
		t.Fatalf("lease %+v, want every cell", l)
	}
	failed := l.Cells[len(l.Cells)-1].Key
	var res []CellResult
	for i, c := range l.Cells {
		if c.Key == failed {
			res = append(res, CellResult{Key: c.Key, Err: "simulated crash"})
		} else {
			res = append(res, CellResult{Key: c.Key, Result: fakeResult(i)})
		}
	}
	q.Complete(l.ID, "w", res)

	mu.Lock()
	defer mu.Unlock()
	if want := []string{"1/4", "2/4", "3/4", "4/4", "done"}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("callbacks %v, want %v", calls, want)
	}
	for i, o := range set.Outcomes {
		if KeyOf(o.Request) == failed {
			if o.Err == nil || !strings.Contains(o.Err.Error(), "simulated crash") || o.Result != nil {
				t.Errorf("outcome %d: failed cell delivered %+v", i, o)
			}
		} else if o.Err != nil || o.Result == nil {
			t.Errorf("outcome %d: completed cell delivered %+v", i, o)
		}
	}
}

// TestOnDoneBeforeSubmitReturns: a submission the store answers
// entirely, and an empty one, deliver their set once before Submit
// returns, without enqueuing anything.
func TestOnDoneBeforeSubmitReturns(t *testing.T) {
	cache := &countingCache{}
	q := New(Options{Cache: cache})
	reqs, _ := tinyReqs(t, 1, core.ExecDirect)
	for _, r := range reqs {
		cache.Put(r, &core.Result{Checksum: 7})
	}
	for name, rs := range map[string][]sweep.Request{"all-hit": reqs, "empty": nil} {
		calls := 0
		var set *sweep.ResultSet
		if err := q.Submit(rs, "tiny", 0, nil, func(s *sweep.ResultSet) { calls++; set = s }); err != nil {
			t.Fatal(err)
		}
		if calls != 1 || len(set.Outcomes) != len(rs) || set.Err() != nil {
			t.Errorf("%s: onDone ran %d times before Submit returned, set %+v", name, calls, set)
		}
	}
	if st := q.Stats(); st.Pending != 0 {
		t.Errorf("answered submissions enqueued %d cells", st.Pending)
	}
}

// TestQueueFullRunsNoCallback: a submission refused with ErrQueueFull
// attaches to nothing, so neither of its callbacks ever runs — not
// even when the live cell it shares with an admitted submission
// completes.
func TestQueueFullRunsNoCallback(t *testing.T) {
	q := New(Options{MaxPending: 1})
	reqs, _ := tinyReqs(t, 1, core.ExecDirect) // 2 cells
	if _, err := submit(q, reqs[:1], 0); err != nil {
		t.Fatal(err)
	}
	err := q.Submit(reqs, "tiny", 0,
		func(int, int) { t.Error("onProgress ran for a refused submission") },
		func(*sweep.ResultSet) { t.Error("onDone ran for a refused submission") })
	var full ErrQueueFull
	if !errors.As(err, &full) {
		t.Fatalf("Submit over the bound = %v, want ErrQueueFull", err)
	}
	if n := completeAll(t, q, "w"); n != 1 {
		t.Fatalf("completed %d cells, want the admitted one", n)
	}
}

// TestCallbacksMayCallQueue: the callbacks run outside the queue lock
// on every delivery path — a cache hit inside Submit, a completion, a
// cell abandoned by expiry — so one that calls back into the queue
// does not deadlock.
func TestCallbacksMayCallQueue(t *testing.T) {
	now := time.Unix(0, 0)
	cache := &countingCache{}
	q := New(Options{Cache: cache, LeaseTTL: time.Second, Now: func() time.Time { return now }})
	reqs, _ := tinyReqs(t, 2, core.ExecDirect)
	reqs = reqs[:3] // a hit, a cell completed, a cell abandoned
	cache.Put(reqs[0], &core.Result{Checksum: 7})

	finished := make(chan *sweep.ResultSet, 1)
	go func() {
		err := q.Submit(reqs, "tiny", 0, func(int, int) { q.Stats() },
			func(set *sweep.ResultSet) { q.Stats(); finished <- set })
		if err != nil {
			t.Error(err)
			return
		}
		l := leaseNow(q, "w", 1)
		q.Complete(l.ID, "w", []CellResult{{Key: l.Cells[0].Key, Result: fakeResult(0)}})
		for range MaxExpiries {
			leaseNow(q, "doomed", 1)
			now = now.Add(2 * time.Second)
			q.Stats() // reaps the lease; the last reap abandons the cell
		}
	}()
	select {
	case set := <-finished:
		if set.Err() == nil || !strings.Contains(set.Err().Error(), "abandoned") {
			t.Errorf("set error = %v, want the abandoned cell's", set.Err())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a callback calling Stats did not return: deadlock")
	}
}

// TestOnlyEnqueuedCellsLease: a cell the store answers, or one attached
// to a live cell, is never leased, and a leased cell's wire spec names
// the quality of the submission that enqueued it. The second
// submission carries another quality label, so a spec built for a cell
// it merely attached to would show.
func TestOnlyEnqueuedCellsLease(t *testing.T) {
	cache := &countingCache{}
	q := New(Options{Cache: cache})
	reqs, _ := tinyReqs(t, 2, core.ExecDirect) // 4 cells
	cache.Put(reqs[0], &core.Result{Checksum: 7})
	if err := q.Submit(reqs[:3], "tiny", 0, nil, nil); err != nil { // hit, new, new
		t.Fatal(err)
	}
	if err := q.Submit(reqs[1:], "tiny-b", 0, nil, nil); err != nil { // live, live, new
		t.Fatal(err)
	}
	leased := make(map[string]CellSpec)
	for l := leaseNow(q, "w", 1); l != nil; l = leaseNow(q, "w", 1) {
		for _, c := range l.Cells {
			if _, dup := leased[c.Key]; dup {
				t.Errorf("cell %s leased twice", c.Key[:12])
			}
			leased[c.Key] = c.Spec
		}
	}
	want := map[string]CellSpec{
		KeyOf(reqs[1]): SpecFor("tiny", reqs[1]),
		KeyOf(reqs[2]): SpecFor("tiny", reqs[2]),
		KeyOf(reqs[3]): SpecFor("tiny-b", reqs[3]),
	}
	if !reflect.DeepEqual(leased, want) {
		t.Errorf("leased specs:\n%+v\nwant:\n%+v", leased, want)
	}
}

// frozenCache serves a cache's results and drops Puts, so every round
// trip of a benchmark meets the same hits.
type frozenCache struct{ *countingCache }

func (frozenCache) Put(sweep.Request, *core.Result) error { return nil }

// BenchmarkQueueRoundTrip: one 32-cell gen submission — 4 workloads ×
// 2 machines × 2 hardware prefetchers × 2 variants, the service
// benchmark's job shape — through Submit, LeaseWait and Complete, on
// an in-memory cache that answers half of it, as the store answers
// about half of a service round. allocs/op grows if the queue builds
// wire specs for cells it never leases.
func BenchmarkQueueRoundTrip(b *testing.B) {
	grid, err := sweep.Spec{
		Quality:   "gen",
		Workloads: "GEN-00,GEN-01,GEN-02,GEN-03",
		Systems:   "Haswell,A53",
		HWPF:      "none,stride",
		Variants:  "plain,auto",
	}.ToGrid()
	if err != nil {
		b.Fatal(err)
	}
	reqs := grid.Expand()
	if len(reqs) != 32 {
		b.Fatalf("%d cells, want 32", len(reqs))
	}
	cache := &countingCache{}
	for i := 0; i < len(reqs); i += 2 {
		cache.Put(reqs[i], &core.Result{Checksum: int64(i)})
	}
	q := New(Options{Cache: frozenCache{cache}})
	finished := make(chan struct{}, 1)
	onDone := func(*sweep.ResultSet) { finished <- struct{}{} }
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := q.Submit(reqs, "gen", 0, nil, onDone); err != nil {
			b.Fatal(err)
		}
		for l := leaseNow(q, "w", 8); l != nil; l = leaseNow(q, "w", 8) {
			res := make([]CellResult, len(l.Cells))
			for i, c := range l.Cells {
				res[i] = CellResult{Key: c.Key, Result: fakeResult(i)}
			}
			q.Complete(l.ID, "w", res)
		}
		<-finished
	}
}
