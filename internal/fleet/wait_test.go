package fleet

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/uarch"
)

// leaseAsync runs LeaseWait in a goroutine; the channel yields its
// lease (nil once ctx ended) and when it returned.
func leaseAsync(ctx context.Context, q *Queue, worker string) <-chan leaseAt {
	ch := make(chan leaseAt, 1)
	go func() {
		l := q.LeaseWait(ctx, worker, 64)
		ch <- leaseAt{l, time.Now()}
	}()
	return ch
}

type leaseAt struct {
	l  *Lease
	at time.Time
}

// receive waits up to 5 s for an async lease.
func receive(t *testing.T, ch <-chan leaseAt) leaseAt {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("LeaseWait did not return within 5 s")
		return leaseAt{}
	}
}

// TestLeaseWaitPending: with cells pending, LeaseWait leases at once.
func TestLeaseWaitPending(t *testing.T) {
	q := New(Options{})
	reqs, _ := tinyReqs(t, 1, core.ExecDirect)
	if _, err := submit(q, reqs, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a lease that waited would come back nil
	l := q.LeaseWait(ctx, "w", 64)
	if l == nil || len(l.Cells) != len(reqs) {
		t.Fatalf("LeaseWait with %d cells pending = %+v", len(reqs), l)
	}
}

// TestLeaseWaitWakesOnSubmit: a waiter on an empty queue receives the
// cells of a later submission.
func TestLeaseWaitWakesOnSubmit(t *testing.T) {
	q := New(Options{})
	ch := leaseAsync(context.Background(), q, "w")
	time.Sleep(20 * time.Millisecond) // let the waiter park
	reqs, _ := tinyReqs(t, 2, core.ExecDirect)
	if _, err := submit(q, reqs, 0); err != nil {
		t.Fatal(err)
	}
	if r := receive(t, ch); r.l == nil || len(r.l.Cells) != len(reqs) {
		t.Fatalf("waiter received %+v, want the %d submitted cells", r.l, len(reqs))
	}
}

// TestLeaseWaitWakesAtDeadline: with every cell held under a short TTL
// on the real clock, a waiter receives the requeued cells no earlier
// than the holder's deadline, with no other queue call made to reap
// the lease.
func TestLeaseWaitWakesAtDeadline(t *testing.T) {
	const ttl = 80 * time.Millisecond
	q := New(Options{LeaseTTL: ttl})
	reqs, _ := tinyReqs(t, 1, core.ExecDirect)
	if _, err := submit(q, reqs, 0); err != nil {
		t.Fatal(err)
	}
	granted := time.Now() // the holder's deadline is at least ttl later
	if held := leaseNow(q, "holder", 64); held == nil || len(held.Cells) != len(reqs) {
		t.Fatalf("holder leased %+v", held)
	}
	r := receive(t, leaseAsync(context.Background(), q, "waiter"))
	if r.l == nil || len(r.l.Cells) != len(reqs) {
		t.Fatalf("waiter received %+v, want the %d requeued cells", r.l, len(reqs))
	}
	if waited := r.at.Sub(granted); waited < ttl {
		t.Errorf("waiter received the cells %v after the grant, before the %v TTL", waited, ttl)
	}
	if st := q.Stats(); st.Requeued != int64(len(reqs)) {
		t.Errorf("requeued = %d, want %d", st.Requeued, len(reqs))
	}
}

// TestLeaseWaitContext: a cancelled or expired context ends the wait
// promptly with nil, also while other leases are outstanding.
func TestLeaseWaitContext(t *testing.T) {
	q := New(Options{})
	reqs, _ := tinyReqs(t, 1, core.ExecDirect)
	if _, err := submit(q, reqs, 0); err != nil {
		t.Fatal(err)
	}
	leaseNow(q, "holder", 64) // an outstanding lease two minutes from expiry

	ctx, cancel := context.WithCancel(context.Background())
	ch := leaseAsync(ctx, q, "w")
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	cancel()
	if r := receive(t, ch); r.l != nil || r.at.Sub(start) > time.Second {
		t.Fatalf("cancelled wait returned %+v after %v", r.l, r.at.Sub(start))
	}

	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start = time.Now()
	if r := receive(t, leaseAsync(ctx, q, "w")); r.l != nil || r.at.Sub(start) > time.Second {
		t.Fatalf("expired wait returned %+v after %v", r.l, r.at.Sub(start))
	}
}

// TestLeaseWaitConcurrent: several waiters and a stream of overlapping
// submissions lease every distinct cell exactly once, and every
// submission finishes. The cache answers cells completed before a
// later submission repeats them, as the coordinator's store does.
func TestLeaseWaitConcurrent(t *testing.T) {
	cache := &countingCache{}
	q := New(Options{Cache: cache})
	pool := tinyPool()
	g := sweep.Grid{
		Workloads: pool,
		Systems:   []*sim.Config{uarch.A53(), uarch.Haswell()},
		Variants:  []core.Variant{core.VariantPlain, core.VariantAuto},
		Options:   core.Options{C: 8},
	}
	reqs := g.Expand()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	leased := make(map[string]int)
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			name := string(rune('a' + w))
			for {
				l := q.LeaseWait(ctx, name, 3)
				if l == nil {
					return
				}
				var res []CellResult
				mu.Lock()
				for i, c := range l.Cells {
					leased[c.Key]++
					res = append(res, CellResult{Key: c.Key, Result: fakeResult(i)})
				}
				mu.Unlock()
				q.Complete(l.ID, name, res)
			}
		}()
	}

	// Overlapping windows of the grid, submitted while the workers run.
	var subs []*submitted
	for lo := 0; lo < len(reqs); lo += 4 {
		hi := min(lo+8, len(reqs))
		tk, err := submit(q, reqs[lo:hi], 0)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, tk)
		time.Sleep(time.Millisecond)
	}
	for i, tk := range subs {
		select {
		case <-tk.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("submission %d never finished", i)
		}
	}
	cancel()
	workers.Wait()

	for k, n := range leased {
		if n != 1 {
			t.Errorf("cell %s leased %d times", k[:12], n)
		}
	}
	if len(leased) != len(reqs) {
		t.Errorf("%d distinct cells leased, want %d", len(leased), len(reqs))
	}
	if st := q.Stats(); st.Completed != int64(len(reqs)) || st.Pending != 0 || st.Leased != 0 || cache.puts != len(reqs) {
		t.Errorf("queue after drain: %+v, %d cache puts", st, cache.puts)
	}
}
