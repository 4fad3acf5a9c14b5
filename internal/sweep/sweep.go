// Package sweep is the parallel experiment engine: it takes a list (or
// declarative grid) of simulation requests — workload × machine ×
// variant × options — fans them out across a pool of worker goroutines,
// and collects the outcomes into a deterministic, order-independent
// result set with JSON/CSV emitters and speedup helpers.
//
// Every run is an independent, deterministic simulation, so the result
// set is bit-identical for any worker count; tests diff serial against
// parallel executions to enforce this. Each worker owns a core.Context,
// which keeps one reset-in-place simulator per machine configuration,
// so workers recycle their cache/TLB/MSHR table storage across runs
// instead of reallocating it.
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

// group is one replay group: the request indices (in request order)
// sharing a functional key. The schedule's lock guards every field
// but idxs.
type group struct {
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
func (r Runner) Execute(reqs []Request) (*ResultSet, error) {
	out := make([]Outcome, len(reqs))
	m := r.metrics()
	var done atomic.Int64
	progress := func() {
		n := int(done.Add(1))
		if r.OnProgress != nil {
			r.OnProgress(n, len(reqs))
		}
	}

	// Serve cache hits up front; only the misses go to the pool.
	// Result keys ignore Exec, so a warm direct store answers replay
	// cells (and vice versa) — the modes produce identical results.
	s := &schedule{}
	s.wake.L = &s.mu
	misses := 0
	byKey := make(map[groupKey]*group)
	for i, req := range reqs {
		if r.Cache != nil {
			if res, ok := r.Cache.Get(req); ok {
				out[i] = Outcome{Request: req, Result: res}
				m.CellsCache.Inc()
				progress()
				continue
			}
		}
		misses++
		if req.ExecMode() != core.ExecReplay {
			s.direct = append(s.direct, i)
			continue
		}
		k := groupKey{req.Workload.Name, req.Workload.Params, req.Variant, req.Options}
		g := byKey[k]
		if g == nil {
			g = &group{}
			byKey[k] = g
			s.groups = append(s.groups, g)
		}
		g.idxs = append(g.idxs, i)
		g.left++
	}
	tc, _ := r.Cache.(TraceCache)

	// open obtains a group's trace and, if any cell still needs it,
	// its image. It returns the image and the number of the group's
	// cells the opening completed: the recorded one, or all of them
	// on failure.
	open := func(cx *core.Context, g *group) (*interp.Image, int) {
		req := reqs[g.idxs[0]]
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
		t, res, err := cx.Record(req.Workload, req.System, req.Variant, req.Options)
		var im *interp.Image
		if err == nil && len(g.idxs) > 1 {
			im, err = interp.NewImage(t)
		}
		m.RecordSeconds.Observe(time.Since(start).Seconds())
		if err != nil {
			for _, i := range g.idxs {
				out[i] = Outcome{Request: reqs[i], Err: err}
				progress()
			}
			return nil, len(g.idxs)
		}
		// Recording is itself a full direct run, so its Result serves
		// the group's first cell for free (with Pass nil, like every
		// replay- or store-served result).
		res.Pass = nil
		out[g.idxs[0]] = Outcome{Request: req, Result: res}
		m.CellsRecorded.Inc()
		r.put(req, res, nil)
		if tc != nil {
			if perr := tc.PutTrace(req, t); perr != nil && r.OnPutError != nil {
				r.OnPutError(req, perr)
			}
		}
		progress()
		return im, 1
	}

	var wg sync.WaitGroup
	for k := Jobs(r.Jobs, misses); k > 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cx := core.NewContext()
			for t, ok := s.take(); ok; t, ok = s.take() {
				if t.open {
					im, n := open(cx, t.g)
					s.opened(t.g, im, n)
					continue
				}
				req := reqs[t.cell]
				start := time.Now()
				var res *core.Result
				var err error
				if t.g == nil {
					res, err = cx.Run(req.Workload, req.System, req.Variant, req.Options)
					m.DirectSeconds.Observe(time.Since(start).Seconds())
					m.CellsDirect.Inc()
				} else {
					// Retimed from the group's image, shared read-only.
					res, err = cx.ReplayImage(t.image, req.System)
					m.ReplaySeconds.Observe(time.Since(start).Seconds())
					m.CellsReplayed.Inc()
				}
				out[t.cell] = Outcome{Request: req, Result: res, Err: err}
				r.put(req, res, err)
				progress()
				if t.g != nil {
					s.completed(t.g, 1)
				}
			}
		}()
	}
	wg.Wait()

	set := &ResultSet{Outcomes: out}
	return set, set.Err()
}

// schedule hands a sweep's misses to the worker pool: direct cells
// first, then replay cells of open groups, oldest group first, and
// only when no replay cell is ready, the next group to open. A group
// is open from when a worker takes it to fetch or record its trace
// until its last cell completes, which drops its image. Because a
// worker opens a group only when every open group's cells are handed
// out, each open group holds a busy worker of its own: at most as many
// groups as workers are open, and so at most that many images alive.
type schedule struct {
	mu     sync.Mutex
	wake   sync.Cond // broadcast when a group becomes ready or a cell completes
	direct []int     // direct cells not yet taken
	groups []*group  // replay groups not yet opened, in request order
	open   []*group  // open groups, in opening order
}

// task is one unit of work: direct cell (g nil), opening group g, or
// replay cell of g from image.
type task struct {
	cell  int
	g     *group
	open  bool
	image *interp.Image
}

// take blocks until a task is available and returns it, or returns
// false once every cell has been handed out and every group closed.
func (s *schedule) take() (task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.direct) > 0 {
			i := s.direct[0]
			s.direct = s.direct[1:]
			return task{cell: i}, true
		}
		for _, g := range s.open {
			if g.image != nil && g.next < len(g.idxs) {
				g.next++
				return task{cell: g.idxs[g.next-1], g: g, image: g.image}, true
			}
		}
		if len(s.groups) > 0 {
			g := s.groups[0]
			s.groups = s.groups[1:]
			s.open = append(s.open, g)
			return task{g: g, open: true}, true
		}
		if len(s.open) == 0 {
			return task{}, false
		}
		s.wake.Wait()
	}
}

// opened publishes an opened group's image, if it has one, and
// accounts for the n cells the opening completed; the cells after
// those are the ones that need the image.
func (s *schedule) opened(g *group, im *interp.Image, n int) {
	s.mu.Lock()
	g.image, g.next = im, n
	s.mu.Unlock()
	s.completed(g, n)
}

// completed accounts for n completed cells of g, closing the group
// after its last.
func (s *schedule) completed(g *group, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g.left -= n; g.left == 0 {
		g.image = nil
		s.open = slices.DeleteFunc(s.open, func(o *group) bool { return o == g })
	}
	s.wake.Broadcast()
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
