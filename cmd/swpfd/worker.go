// Fleet workers. One loop executes cells for every worker: the
// daemon's in-process workers run it against their own *fleet.Queue,
// and `swpfd -worker http://coordinator:8077` runs it against a remote
// coordinator's HTTP API. Each lease goes lease → rebuild → execute →
// report, with heartbeats keeping it alive until its report returns,
// and every lease runs on the worker's one long-lived sweep pool, whose
// goroutines keep their simulators and kernels from lease to lease.
// The coordinator owns all bookkeeping (dedupe, persistence, result
// fan-out), so a worker holds no state worth preserving — kill it any
// time and its leased cells return to the queue when the lease
// expires.
//
// Workers rebuild cells from wire specs (fleet.CellSpec.Request): the
// machine configuration travels in full, the workload is resolved by
// (quality, name) out of the process's memoized pools and
// cross-checked against the coordinator's parameter string, so a
// version-skewed worker fails the cell loudly instead of silently
// computing the wrong one.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// coordinator is the queue a worker leases cells from: the daemon's
// own *fleet.Queue for in-process workers, fleetClient for remote
// ones. LeaseWait returns nil when no lease came.
type coordinator interface {
	LeaseWait(ctx context.Context, worker string, max int) *fleet.Lease
	Heartbeat(id, worker string) bool
	Complete(id, worker string, results []fleet.CellResult) (accepted, dropped int)
}

// fleetWorker is the worker loop.
type fleetWorker struct {
	coord  coordinator
	name   string
	batch  int
	runner sweep.Runner
	log    *slog.Logger
	// configs interns decoded machine configurations by wire bytes for
	// the worker's lifetime, so cells of every lease that share a
	// machine share one *sim.Config and so one recycled simulator per
	// sweep goroutine. Only the goroutine fetching a lease touches it.
	configs   map[string]*sim.Config
	reporting sync.WaitGroup // completion reports in flight
}

// maxConfigs bounds the interned configurations: a worker that has
// seen more starts the table over, so its memory does not grow with
// the number of machines it is asked to simulate.
const maxConfigs = 256

// runWorker is the worker-mode main loop: ask the coordinator for
// leases until killed.
func runWorker(url, name string, jobs, batch int, log *slog.Logger) error {
	url = strings.TrimRight(url, "/")
	if !strings.Contains(url, "://") {
		return fmt.Errorf("-worker %q is not an absolute coordinator URL", url)
	}
	if name == "" {
		name = fmt.Sprintf("swpfd-%d", os.Getpid())
	}
	w := remoteWorker(url, name, jobs, batch, log)
	w.log.Info("pulling", "coordinator", url)
	w.run(context.Background())
	return nil
}

// remoteWorker builds the loop `swpfd -worker` runs. Its runner has no
// cache: the coordinator probed its store at submission and persists
// completions, and replay groups lease whole, so trace amortization
// happens in memory within one lease.
func remoteWorker(url, name string, jobs, batch int, log *slog.Logger) *fleetWorker {
	log = log.With("worker", name)
	return &fleetWorker{
		coord:  &fleetClient{url: url, client: &http.Client{Timeout: 30 * time.Second}, log: log, rids: make(map[string]string)},
		name:   name,
		batch:  batch,
		runner: sweep.Runner{Jobs: jobs},
		log:    log,
	}
}

// run executes leases until ctx ends. A lease request waits at the
// coordinator until work arrives, so an idle worker neither sleeps nor
// polls.
func (w *fleetWorker) run(ctx context.Context) {
	w.serve(func() (*fleet.Lease, string) {
		for ctx.Err() == nil {
			if l, rid := w.lease(ctx); l != nil {
				return l, rid
			}
		}
		return nil, ""
	})
}

// serve runs the leases next returns on the worker's one sweep pool
// (sweep.Runner.Serve) until next returns nil, then waits for the last
// report. The pool's goroutines keep their simulators and kernels
// across leases, and a goroutine with no cell to start asks for the
// next lease while the others finish theirs, so leases overlap.
func (w *fleetWorker) serve(next func() (*fleet.Lease, string)) {
	w.runner.Serve(func() (sweep.Batch, bool) {
		l, rid := next()
		if l == nil {
			return sweep.Batch{}, false
		}
		return w.start(l, rid), true
	})
	w.reporting.Wait()
}

// lease asks for a batch under a fresh request ID: the batch logs under
// it, and a remote coordinator sees it on every request about the
// lease, tying both sides of the cell lifecycle together.
func (w *fleetWorker) lease(ctx context.Context) (*fleet.Lease, string) {
	rid := obs.NewRequestID()
	return w.coord.LeaseWait(context.WithValue(ctx, ridKey{}, rid), w.name, w.batch), rid
}

// start opens a lease for the pool: it starts a background heartbeat
// and rebuilds the lease's requests from their wire specs. The batch's
// Done reports every cell — results for the runnable ones, errors for
// the rest — from a goroutine, and the heartbeat keeps the lease alive
// until the report returns; reporting.Wait waits for every report.
func (w *fleetWorker) start(l *fleet.Lease, rid string) sweep.Batch {
	log := w.log.With("rid", rid, "lease", l.ID)
	log.Info("lease", "cells", len(l.Cells), "ttl", l.TTL().String())
	stop := make(chan struct{})
	go w.heartbeat(l, stop)

	if w.configs == nil || len(w.configs) >= maxConfigs {
		w.configs = make(map[string]*sim.Config)
	}
	results := make([]fleet.CellResult, len(l.Cells))
	var reqs []sweep.Request
	var reqIdx []int
	for i, c := range l.Cells {
		results[i] = fleet.CellResult{Key: c.Key}
		req, err := c.Spec.Request(w.configs)
		if err != nil {
			results[i].Err = err.Error()
			continue
		}
		reqs = append(reqs, req)
		reqIdx = append(reqIdx, i)
	}
	start := time.Now()
	return sweep.Batch{Reqs: reqs, Done: func(set *sweep.ResultSet) {
		for n, o := range set.Outcomes {
			i := reqIdx[n]
			if o.Err != nil {
				results[i].Err = o.Err.Error()
			} else {
				d := o.Result.Data()
				results[i].Result = &d
			}
		}
		elapsed := time.Since(start).Round(time.Microsecond)
		for _, res := range results {
			log.Debug("cell", "key", res.Key, "err", res.Err)
		}
		log.Info("execute", "cells", len(l.Cells), "dur", elapsed.String())

		w.reporting.Add(1)
		go func() {
			defer w.reporting.Done()
			defer close(stop)
			accepted, dropped := w.coord.Complete(l.ID, w.name, results)
			if accepted+dropped == 0 {
				return // the report never arrived: the client logged why
			}
			log.Info("complete", "accepted", accepted, "dropped", dropped, "dur", elapsed.String())
			if dropped > 0 {
				log.Warn("duplicate cells dropped by coordinator", "dropped", dropped)
			}
		}()
	}}
}

// heartbeat extends the lease until stop closes or the coordinator
// answers that the lease is gone (expired and re-leased elsewhere):
// the worker keeps computing, reports anyway, and the coordinator drops
// whatever the re-lease already answered.
func (w *fleetWorker) heartbeat(l *fleet.Lease, stop <-chan struct{}) {
	t := time.NewTicker(max(l.TTL()/3, 10*time.Millisecond)) // safely inside the TTL
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if !w.coord.Heartbeat(l.ID, w.name) {
				return
			}
		}
	}
}

// ridKey is the context key under which the worker loop hands
// fleetClient the request ID of a lease request.
type ridKey struct{}

// fleetClient is the coordinator interface over a remote daemon's fleet
// API. A lease request travels under the request ID in its context,
// and every later request about that lease carries the same ID.
type fleetClient struct {
	url    string
	client *http.Client
	log    *slog.Logger
	// backoff is the delay after the last failed lease request, 0 after
	// a success; only LeaseWait's goroutine touches it.
	backoff time.Duration

	mu   sync.Mutex
	rids map[string]string // lease ID → request ID, until its report returns
}

// LeaseWait asks for a batch; the coordinator holds the request until
// work arrives, and a 204 (nil) means none came in its bound. A failed
// request is logged and returns nil after an exponential backoff capped
// at 5 s, so a worker outlives coordinator restarts.
func (c *fleetClient) LeaseWait(ctx context.Context, worker string, max int) *fleet.Lease {
	rid, _ := ctx.Value(ridKey{}).(string)
	var l fleet.Lease
	code, err := c.post(ctx, "/fleet/lease", rid, LeaseRequest{Worker: worker, Max: max}, &l)
	if err != nil {
		c.backoff = min(2*c.backoff, 5*time.Second)
		if c.backoff == 0 {
			c.backoff = 100 * time.Millisecond
		}
		c.log.Warn("lease failed", "err", err, "backoff", c.backoff.String())
		time.Sleep(c.backoff)
		return nil
	}
	c.backoff = 0
	if code == http.StatusNoContent {
		return nil
	}
	c.mu.Lock()
	c.rids[l.ID] = rid
	c.mu.Unlock()
	return &l
}

// Heartbeat extends a lease. An unreachable coordinator may come back,
// so only its answer that the lease is gone returns false.
func (c *fleetClient) Heartbeat(id, worker string) bool {
	var hb struct {
		OK bool `json:"ok"`
	}
	_, err := c.post(context.Background(), "/fleet/heartbeat", c.rid(id), HeartbeatRequest{Lease: id, Worker: worker}, &hb)
	return err != nil || hb.OK
}

// Complete reports a lease's results. A report that fails is logged
// and counts no cell; the lease then expires and its cells requeue.
func (c *fleetClient) Complete(id, worker string, results []fleet.CellResult) (accepted, dropped int) {
	rid := c.rid(id)
	defer func() {
		c.mu.Lock()
		delete(c.rids, id)
		c.mu.Unlock()
	}()
	var rep struct {
		Accepted int `json:"accepted"`
		Dropped  int `json:"dropped"`
	}
	if _, err := c.post(context.Background(), "/fleet/complete", rid, CompleteRequest{Lease: id, Worker: worker, Results: results}, &rep); err != nil {
		c.log.Warn("report failed", "rid", rid, "lease", id, "err", err)
		return 0, 0
	}
	return rep.Accepted, rep.Dropped
}

func (c *fleetClient) rid(lease string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rids[lease]
}

// post sends one JSON request under the request ID rid and decodes the
// JSON reply into out (skipped when the reply is 204).
func (c *fleetClient) post(ctx context.Context, path, rid string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set(obs.RequestIDHeader, rid)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}
