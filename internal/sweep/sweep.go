// Package sweep is the parallel experiment engine: it takes a list (or
// declarative grid) of simulation requests — workload × machine ×
// variant × options — fans them out across a pool of worker goroutines,
// and collects the outcomes into a deterministic, order-independent
// result set with JSON/CSV emitters and speedup helpers.
//
// Every run is an independent, deterministic simulation, so the result
// set is bit-identical for any worker count; tests diff serial against
// parallel executions to enforce this. Each worker owns a core.Context,
// which keeps one reset-in-place simulator per machine configuration
// and memoizes the kernels it builds, so workers recycle their
// cache/TLB/MSHR table storage and their prefetch-pass output across
// runs instead of rebuilding them. Runner.Execute runs one request
// list; Runner.Serve keeps its workers, and their contexts, across a
// stream of batches (a fleet worker's leases).
//
// Cells requested with Exec = core.ExecReplay run through the
// record/replay split (internal/trace): the engine factors them by
// (workload, variant, options) — the functional coordinates — records
// (or fetches from a TraceCache) one trace per group, and retimes every
// machine × hwpf cell of the group by replaying that trace. Replayed
// statistics are byte-for-byte identical to direct runs, so the two
// modes are interchangeable cell by cell; replay just amortizes the
// interpreter across the timing axes.
//
// The figure harness (internal/bench), the golden stat dumper
// (cmd/golden) and swpfbench's -sweep mode are all built on this
// package.
package sweep

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Request describes one cell of an experiment grid. Exec selects the
// execution mode; the zero value ("") means core.ExecDirect, so request
// lists written before the axis existed behave unchanged.
type Request struct {
	Workload *workloads.Workload
	System   *sim.Config
	Variant  core.Variant
	Options  core.Options
	Exec     core.ExecMode
}

// ExecMode returns the request's execution mode with the zero value
// normalized to direct.
func (r Request) ExecMode() core.ExecMode {
	if r.Exec == "" {
		return core.ExecDirect
	}
	return r.Exec
}

// Outcome pairs a request with what happened when it ran.
type Outcome struct {
	Request
	Result *core.Result
	Err    error
}

// Jobs normalizes a worker count: non-positive means GOMAXPROCS, and
// the pool never exceeds the number of requests.
func Jobs(jobs, requests int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > requests {
		jobs = requests
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// Cache is a pluggable persistent result cache consulted by Runner.
// Get returns the stored result for a request (a miss is (nil, false));
// Put persists a freshly computed one. A simulation request is fully
// deterministic, so a cache entry is exactly as good as re-running the
// cell — internal/store provides the content-addressed on-disk
// implementation. Implementations must be safe for concurrent use:
// worker goroutines Put results as they complete.
//
// Result keys ignore the execution mode — direct and replay results
// are byte-identical, so either mode's entries serve both.
type Cache interface {
	Get(Request) (*core.Result, bool)
	Put(Request, *core.Result) error
}

// TraceCache is the optional trace-object extension of Cache: a cache
// that also persists recorded traces lets a replay sweep skip the
// recording interpretation entirely when any earlier sweep (or
// process) has recorded the same (workload, variant, options) group.
// internal/store implements it; a Runner probes for it with a type
// assertion, so plain result caches keep working untouched.
type TraceCache interface {
	GetTrace(Request) (*trace.Trace, bool)
	PutTrace(Request, *trace.Trace) error
}

// Runner executes request lists. The zero value runs serially enough:
// Jobs <= 0 selects GOMAXPROCS workers, no cache, no progress
// reporting.
type Runner struct {
	// Jobs is the worker-pool size; <= 0 selects GOMAXPROCS.
	Jobs int
	// Cache, when non-nil, answers cells without simulating and
	// persists computed results as each cell completes — an
	// interrupted grid resumes from the cells already stored. If it
	// also implements TraceCache, replay-mode groups fetch and persist
	// their traces through it.
	Cache Cache
	// OnProgress, when non-nil, is invoked after every completed cell
	// (cache hit or simulated) with the running completion count and
	// the request total. It is called concurrently from worker
	// goroutines and must be safe for that.
	OnProgress func(done, total int)
	// OnPutError, when non-nil, receives cache-persistence failures
	// (results and traces alike). Persistence is best-effort: a failed
	// Put never fails the sweep (the cell just recomputes next time),
	// so with a nil callback failures are silently ignored. Called
	// concurrently from worker goroutines.
	OnPutError func(Request, error)
	// Metrics, when non-nil, receives per-cell accounting: how each
	// cell was served and per-phase latency histograms (see
	// NewMetrics). Observations wrap the simulator calls from outside,
	// so result sets are byte-identical with or without it.
	Metrics *Metrics
}

// groupKey identifies a replay group: the functional coordinates of a
// recording. Machine and hwpf are absent — that is the amortization.
type groupKey struct {
	name, params string
	variant      core.Variant
	options      core.Options
}

// Batch is one request list for a long-lived pool (Runner.Serve) and
// the callback that receives its outcomes.
type Batch struct {
	Reqs []Request
	// Done (required) receives the batch's result set, outcomes in
	// request order, once every cell has one. It runs on the pool
	// goroutine that completed the last cell (or that admitted a batch
	// with nothing to simulate), which starts no cell until it returns.
	Done func(*ResultSet)
}

// batch is an admitted Batch: its outcome slots and its misses. The
// schedule's lock guards left.
type batch struct {
	seq      int // admission order, from 1
	reqs     []Request
	out      []Outcome
	misses   []int // indices of the cells the cache did not answer
	left     int   // cells without an outcome
	done     func(*ResultSet)
	progress func()
}

// group is one replay group of a batch: the request indices (in
// request order) sharing a functional key. The schedule's lock guards
// every field but b and idxs.
type group struct {
	b     *batch
	idxs  []int
	image *interp.Image // set while cells still need it
	next  int           // idxs[next] is the next cell to hand out
	left  int           // cells not yet completed
}

// Execute runs every request and returns the outcomes in request
// order, regardless of completion order. The returned error is the
// first failure in request order — deterministic even though workers
// race — and the result set still holds every other outcome. Cache
// hits are served before the worker pool starts, so only misses cost
// simulation time; failed cells are never cached.
//
// One worker pool runs the misses: direct cells first, then replay
// groups streamed in request order (see schedule). A group obtains
// its trace — fetched from a TraceCache, or recorded, which also
// serves the group's first cell — and decodes it into an image only
// if some cell still needs one; the image is dropped when the group's
// last cell completes, so replay memory is bounded by the worker
// count, not by the grid. A group whose trace cannot be obtained
// fails all its cells with the recording error. The result set is
// bit-identical for any worker count in both modes — and across
// modes, which cmd/golden enforces byte-for-byte.
//
// Execute is the one-batch case of Serve: its pool lives for this one
// call, each goroutine on a fresh core.Context that keeps every
// simulator and kernel it builds until the call returns.
func (r Runner) Execute(reqs []Request) (*ResultSet, error) {
	var set *ResultSet
	s := newSchedule(nil)
	b := r.admit(Batch{Reqs: reqs, Done: func(rs *ResultSet) { set = rs }}, 1)
	s.push(b)
	r.pool(s, Jobs(r.Jobs, len(b.misses)))
	return set, set.Err()
}

// Serve is the long-lived form of Execute: a pool of Jobs goroutines
// (<= 0 selects GOMAXPROCS) runs the batches next returns until next
// returns false, then finishes every admitted batch and returns. Each
// goroutine keeps its core.Context, so its simulators and kernels,
// across batches, and trims it (core.Context.Trim) when it moves on to
// a newer batch, never within one.
//
// A goroutine with nothing to start calls next while the others finish
// their cells; at most one call is in flight, and it may block (a
// fleet worker's long-polled lease). Batches therefore overlap: a
// newer batch's cells start on whichever goroutines are free, and each
// batch's Done fires when its own last cell completes. Within a batch
// everything is as in Execute — cache hits served at admission, on
// the goroutine that called next, replay groups spread over idle
// goroutines, a panicking cell failing alone — and OnProgress counts
// per batch.
func (r Runner) Serve(next func() (Batch, bool)) {
	seq := 0
	r.pool(newSchedule(func() (*batch, bool) {
		in, ok := next()
		if !ok {
			return nil, false
		}
		seq++
		return r.admit(in, seq), true
	}), Jobs(r.Jobs, math.MaxInt))
}

// admit builds the batch and serves its cache hits. Result keys ignore
// Exec, so a warm direct store answers replay cells (and vice versa).
// A batch with no miss is done here.
func (r Runner) admit(in Batch, seq int) *batch {
	b := &batch{seq: seq, reqs: in.Reqs, out: make([]Outcome, len(in.Reqs)), done: in.Done}
	var done atomic.Int64
	b.progress = func() {
		n := int(done.Add(1))
		if r.OnProgress != nil {
			r.OnProgress(n, len(b.reqs))
		}
	}
	m := r.metrics()
	for i, req := range b.reqs {
		b.out[i].Request = req
		if r.Cache != nil {
			if res, ok := r.Cache.Get(req); ok {
				b.out[i].Result = res
				m.CellsCache.Inc()
				b.progress()
				continue
			}
		}
		b.misses = append(b.misses, i)
	}
	if b.left = len(b.misses); b.left == 0 {
		b.finish()
	}
	return b
}

// finish hands the batch's outcomes to its Done.
func (b *batch) finish() { b.done(&ResultSet{Outcomes: b.out}) }

// pool runs the schedule's tasks on jobs goroutines until it is
// drained.
func (r Runner) pool(s *schedule, jobs int) {
	m := r.metrics()
	tc, _ := r.Cache.(TraceCache)

	// open obtains a group's trace and, if any cell still needs it,
	// its image. It returns the image and the number of the group's
	// cells the opening completed: the recorded one, or all of them
	// on failure.
	open := func(w *worker, g *group) (*interp.Image, int) {
		b := g.b
		req := b.reqs[g.idxs[0]]
		if tc != nil {
			if t, ok := tc.GetTrace(req); ok {
				if im, err := interp.NewImage(t); err == nil {
					return im, 0
				}
				// Undecodable under this build (e.g. recorded by a
				// different IR revision): fall through and re-record.
			}
		}
		start := time.Now()
		var t *trace.Trace
		var res *core.Result
		var im *interp.Image
		err := w.do(req, func(cx *core.Context) (err error) {
			t, res, err = cx.Record(req.Workload, req.System, req.Variant, req.Options)
			if err == nil && len(g.idxs) > 1 {
				im, err = interp.NewImage(t)
			}
			return err
		})
		m.RecordSeconds.Observe(time.Since(start).Seconds())
		if err != nil {
			for _, i := range g.idxs {
				b.out[i].Err = err
				b.progress()
			}
			return nil, len(g.idxs)
		}
		// Recording is itself a full direct run, so its Result serves
		// the group's first cell for free (with Pass nil, like every
		// replay- or store-served result).
		res.Pass = nil
		b.out[g.idxs[0]].Result = res
		m.CellsRecorded.Inc()
		r.put(req, res, nil)
		if tc != nil {
			if perr := tc.PutTrace(req, t); perr != nil && r.OnPutError != nil {
				r.OnPutError(req, perr)
			}
		}
		b.progress()
		return im, 1
	}

	var wg sync.WaitGroup
	for k := jobs; k > 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{cx: core.NewContext()}
			for t, ok := s.take(); ok; t, ok = s.take() {
				if t.b.seq > w.seq {
					w.seq = t.b.seq
					w.cx.Trim()
				}
				if t.open {
					im, n := open(w, t.g)
					s.opened(t.g, im, n)
					continue
				}
				req := t.b.reqs[t.cell]
				start := time.Now()
				var res *core.Result
				err := w.do(req, func(cx *core.Context) (err error) {
					if t.g == nil {
						res, err = cx.Run(req.Workload, req.System, req.Variant, req.Options)
					} else {
						// Retimed from the group's image, shared read-only.
						res, err = cx.ReplayImage(t.image, req.System)
					}
					return err
				})
				if t.g == nil {
					m.DirectSeconds.Observe(time.Since(start).Seconds())
					m.CellsDirect.Inc()
				} else {
					m.ReplaySeconds.Observe(time.Since(start).Seconds())
					m.CellsReplayed.Inc()
				}
				t.b.out[t.cell].Result, t.b.out[t.cell].Err = res, err
				r.put(req, res, err)
				t.b.progress()
				s.completed(t, 1)
			}
		}()
	}
	wg.Wait()
}

// worker is one pool goroutine's simulator context and the newest
// batch it has taken a task from.
type worker struct {
	cx  *core.Context
	seq int
}

// do runs one simulator call for req, turning a panic into an error
// that carries the panic value: a cell whose machine configuration the
// simulator rejects fails alone instead of killing the process. The
// context a panic may have left half-built is replaced.
func (w *worker) do(req Request, f func(*core.Context) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			w.cx = core.NewContext()
			err = fmt.Errorf("sweep: %s/%s on %s: panic: %v", req.Workload.Name, req.Variant, req.System.Name, p)
		}
	}()
	return f(w.cx)
}

// schedule hands the misses of admitted batches to the worker pool:
// direct cells first, oldest batch first, then replay cells of open
// groups, oldest group first, and only when no replay cell is ready,
// the next group to open. A group is open from when a worker takes it
// to fetch or record its trace until its last cell completes, which
// drops its image. Because a worker opens a group only when every open
// group's cells are handed out, each open group holds a busy worker of
// its own: at most as many groups as workers are open, and so at most
// that many images alive. With nothing to hand out, one worker at a
// time asks next for another batch.
type schedule struct {
	mu       sync.Mutex
	wake     sync.Cond             // broadcast when tasks may have appeared or the pool may be drained
	next     func() (*batch, bool) // the admitted-batch source; nil once exhausted
	fetching bool                  // a worker is in next
	direct   []task                // direct cells not yet taken
	groups   []*group              // replay groups not yet opened, in admission and request order
	open     []*group              // open groups, in opening order
}

func newSchedule(next func() (*batch, bool)) *schedule {
	s := &schedule{next: next}
	s.wake.L = &s.mu
	return s
}

// task is one unit of work of batch b: direct cell (g nil), opening
// group g, or replay cell of g from image.
type task struct {
	b     *batch
	cell  int
	g     *group
	open  bool
	image *interp.Image
}

// push queues an admitted batch's misses: direct cells, and replay
// cells grouped by their functional key.
func (s *schedule) push(b *batch) {
	byKey := make(map[groupKey]*group)
	for _, i := range b.misses {
		req := b.reqs[i]
		if req.ExecMode() != core.ExecReplay {
			s.direct = append(s.direct, task{b: b, cell: i})
			continue
		}
		k := groupKey{req.Workload.Name, req.Workload.Params, req.Variant, req.Options}
		g := byKey[k]
		if g == nil {
			g = &group{b: b}
			byKey[k] = g
			s.groups = append(s.groups, g)
		}
		g.idxs = append(g.idxs, i)
		g.left++
	}
}

// take blocks until a task is available and returns it, or returns
// false once every admitted cell has been handed out, every group
// closed and the batch source exhausted. With nothing to hand out and
// no fetch in flight, the caller fetches the next batch itself.
func (s *schedule) take() (task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.direct) > 0 {
			t := s.direct[0]
			s.direct = s.direct[1:]
			return t, true
		}
		for _, g := range s.open {
			if g.image != nil && g.next < len(g.idxs) {
				g.next++
				return task{b: g.b, cell: g.idxs[g.next-1], g: g, image: g.image}, true
			}
		}
		if len(s.groups) > 0 {
			g := s.groups[0]
			s.groups = s.groups[1:]
			s.open = append(s.open, g)
			return task{b: g.b, g: g, open: true}, true
		}
		switch {
		case s.next != nil && !s.fetching:
			s.fetch()
		case s.next == nil && !s.fetching && len(s.open) == 0:
			return task{}, false
		default:
			s.wake.Wait()
		}
	}
}

// fetch takes the next batch from the source, outside the lock, and
// queues its misses. The caller holds s.mu.
func (s *schedule) fetch() {
	s.fetching = true
	s.mu.Unlock()
	b, ok := s.next()
	s.mu.Lock()
	s.fetching = false
	if ok {
		s.push(b)
	} else {
		s.next = nil
	}
	s.wake.Broadcast()
}

// opened publishes an opened group's image, if it has one, and
// accounts for the n cells the opening completed; the cells after
// those are the ones that need the image.
func (s *schedule) opened(g *group, im *interp.Image, n int) {
	s.mu.Lock()
	g.image, g.next = im, n
	s.mu.Unlock()
	s.completed(task{b: g.b, g: g}, n)
}

// completed accounts for n completed cells of t's batch and group,
// closing the group after its last cell and finishing the batch after
// its last.
func (s *schedule) completed(t task, n int) {
	s.mu.Lock()
	if g := t.g; g != nil {
		if g.left -= n; g.left == 0 {
			g.image = nil
			s.open = slices.DeleteFunc(s.open, func(o *group) bool { return o == g })
		}
	}
	t.b.left -= n
	last := t.b.left == 0
	s.wake.Broadcast()
	s.mu.Unlock()
	if last {
		t.b.finish()
	}
}

// put persists a successful result, reporting failures to OnPutError.
func (r Runner) put(req Request, res *core.Result, err error) {
	if err != nil || r.Cache == nil {
		return
	}
	if perr := r.Cache.Put(req, res); perr != nil && r.OnPutError != nil {
		r.OnPutError(req, perr)
	}
}

// Execute runs every request on a pool of jobs worker goroutines
// (jobs <= 0 selects GOMAXPROCS); see Runner.Execute.
func Execute(reqs []Request, jobs int) (*ResultSet, error) {
	return Runner{Jobs: jobs}.Execute(reqs)
}
