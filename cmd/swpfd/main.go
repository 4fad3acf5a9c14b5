// Command swpfd is the sweep fabric's daemon: an HTTP service that
// executes experiment grids asynchronously on a shared cell queue
// (internal/fleet), backed by the content-addressed result store
// (internal/store). Submitting the same grid twice — or two grids that
// overlap, from any number of concurrent clients — costs one
// simulation per distinct cell fleet-wide; everything else is served
// from the store or attached to the already-live cell.
//
// Job API:
//
//	POST /sweep        submit a grid spec — or a JSON array of specs —
//	                   returns {"id", "cells"} (a list, for a list);
//	                   429 + Retry-After when the queue is full
//	POST /tune         submit a tune spec (internal/tune): search
//	                   (c, depth, hoist, hwpf) for the best speedup
//	                   over the no-prefetch baseline; returns {"id"} —
//	                   the job streams evaluation progress on /events
//	                   and serves its report on /results
//	GET  /jobs         list all jobs with status
//	GET  /jobs/{id}    one job's status and progress counts
//	GET  /jobs/{id}/events
//	                   live progress as Server-Sent Events; the stream
//	                   ends after the terminal event
//	GET  /results?id=ID[&format=csv|json]
//	                   a completed job's ResultSet (JSON records by
//	                   default, CSV on request)
//	GET  /meta[?quality=full|quick|tiny|gen]
//	                   enumerate every grid axis so specs can be built
//	                   without reading source
//
// Fleet API (worker processes; see worker.go and docs/fleet.md):
//
//	POST /fleet/lease      pull a batch of cells under an expiring lease
//	POST /fleet/complete   report a lease's results
//	POST /fleet/heartbeat  extend a lease
//	GET  /fleet            queue + store statistics
//
// Cells run on -local-workers in-process worker loops (default 1) plus
// any number of remote `swpfd -worker URL` processes pulling from
// /fleet. The queue dedupes cells by content address, bounds live
// cells (-max-pending, 429 on overflow), orders by submission priority,
// and requeues the cells of leases that stop heartbeating — a killed
// worker loses work, never results.
//
// The grid spec mirrors swpfbench's -sweep flags:
//
//	curl -s localhost:8077/sweep -d '{"workloads":"IS,CG","systems":"Haswell","variants":"plain,auto","quality":"quick"}'
//	curl -s localhost:8077/jobs/job-1
//	curl -s 'localhost:8077/results?id=job-1&format=csv'
//
// Flags: -addr (default 127.0.0.1:8077 — the API is unauthenticated,
// so non-loopback binds are an explicit choice; :0 picks an ephemeral
// port and prints it), -jobs (worker pool size per sweep),
// -store/-no-store (result cache; default $SWPF_STORE), -local-workers,
// -lease-ttl, -lease-batch, -max-pending, and -worker URL (run as a
// fleet worker instead of a daemon). See docs/service.md and
// docs/fleet.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hwpf"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/tune"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func main() {
	switch err := run(os.Args[1:], os.Stderr); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp): // usage already printed; exit 0
	default:
		fmt.Fprintln(os.Stderr, "swpfd:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until the listener fails — the testable
// part of the daemon is newServer, which httptest drives directly.
func run(argv []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("swpfd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "127.0.0.1:8077", "listen address (loopback by default; the API is unauthenticated)")
		jobs    = fs.Int("jobs", 0, "worker goroutines per sweep (0 = all CPUs)")
		worker  = fs.String("worker", "", "run as a fleet worker pulling cells from this coordinator URL instead of serving")
		name    = fs.String("name", "", "worker name reported to the coordinator (default swpfd-<pid>)")
		locals  = fs.Int("local-workers", 1, "in-process worker loops (0 = coordinate only, serve cells to remote workers)")
		ttl     = fs.Duration("lease-ttl", fleet.DefaultLeaseTTL, "fleet lease time-to-live between worker heartbeats")
		batch   = fs.Int("lease-batch", 8, "max cells per worker lease")
		pending = fs.Int("max-pending", fleet.DefaultMaxPending, "max live (pending+leased) cells before submissions get 429")
		debug   = fs.Bool("debug", false, "mount Go profiling endpoints under /debug/pprof/")
	)
	logFlags := obs.BindLogFlags(fs)
	resolveStore := store.BindFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	logger, err := logFlags.Logger(stderr)
	if err != nil {
		return err
	}
	if *worker != "" {
		return runWorker(*worker, *name, *jobs, *batch, logger)
	}
	st, err := resolveStore()
	if err != nil {
		return err
	}
	if st != nil {
		logger.Info("store", "dir", st.Dir())
	}
	// On the flag, 0 means coordinate-only; in config that is the -1
	// sentinel (config 0 selects the 1-worker default).
	lw := *locals
	if lw == 0 {
		lw = -1
	}
	h := newServerCfg(config{
		jobs:         *jobs,
		store:        st,
		localWorkers: lw,
		leaseBatch:   *batch,
		maxPending:   *pending,
		leaseTTL:     *ttl,
		stderr:       stderr,
		logger:       logger,
		debug:        *debug,
	})
	// Listen before announcing, so "-addr :0" logs the real port — the
	// e2e harness (and scripts) parse the addr attribute of this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", ln.Addr().String())
	return http.Serve(ln, h)
}

// SweepSpec is the POST /sweep request body: the shared grid spec of
// internal/sweep, which is also what swpfbench's -sweep flags and
// swpfctl's submit flags build — one Validate/ToGrid for every
// surface. Empty selector strings mean each axis's default; Quality
// picks the workload pool — "full" (default), "quick", "tiny" (test
// sizes), or "gen" (randomly generated kernels, see internal/gen).
type SweepSpec = sweep.Spec

// validateWireSpec applies the daemon's one restriction on top of the
// shared spec validation: ad-hoc generated kernels (gen/gen_seed)
// cannot travel over the fleet, because workers reconstruct cells by
// (quality, name) against their own memoized pools — an ad-hoc family
// has no pool to resolve from. Quality "gen" (the default generated
// family) works fleet-wide.
func validateWireSpec(sp SweepSpec) (sweep.Grid, error) {
	if sp.Gen != 0 || sp.GenSeed != 0 {
		return sweep.Grid{}, errors.New(errGenWire)
	}
	return sp.ToGrid()
}

// errGenWire is the 400 body for specs carrying gen/gen_seed, shared
// by POST /sweep and POST /tune.
const errGenWire = `spec fields "gen"/"gen_seed" are not supported by the daemon (workers resolve workloads by quality and name); use "quality": "gen" for the generated family`

// Job states. Submissions are admitted straight into the cell queue
// (or rejected with 429), so there is no queued state: a job is
// running until its last cell completes.
const (
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// maxJobs bounds retained jobs: once exceeded, the oldest *terminal*
// jobs (and their result sets) are evicted, after which their ids
// answer 404. Running jobs are never evicted. (Live cells are bounded
// separately by the queue's max-pending admission control.)
const maxJobs = 256

// job is one submitted sweep or tune search and its dynamic state:
// progress counts, terminal state and report. A sweep job fills the
// state from its fleet submission's callbacks; a tune job from
// tuneRunner and runTune. Every route reads it through snapshot, and
// closing changed is the only fan-out to SSE clients.
type job struct {
	id       string
	spec     SweepSpec
	tuneSpec *TuneSpec // set for tune jobs

	mu     sync.Mutex
	done   int // monotonic; evaluations, not cells, for tune jobs
	total  int // monotonic; a tune job's total grows batch by batch
	state  string
	errMsg string
	report report // set once state is stateDone
	// changed is closed and replaced on every change of the fields
	// above, waking every GET /jobs/{id}/events reader at once.
	changed chan struct{}
}

// report is what a finished job serves on /results: a sweep's
// sweep.ResultSet or a tune job's tune.Report.
type report interface {
	WriteJSON(io.Writer) error
	WriteCSV(io.Writer) error
}

// wakeLocked wakes every reader waiting on the job: it closes their
// channel and starts the next one, the fleet queue's wake idiom.
func (j *job) wakeLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// setProgress advances the counters monotonically, waking readers
// only on a change: completions arrive concurrently and out of order.
func (j *job) setProgress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if done <= j.done && total <= j.total {
		return
	}
	j.done, j.total = max(j.done, done), max(j.total, total)
	j.wakeLocked()
}

// finish makes the job terminal: done with rep, or failed with err.
func (j *job) finish(rep report, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.state = stateFailed
		j.errMsg = err.Error()
	} else {
		j.state = stateDone
		j.report = rep
	}
	j.wakeLocked()
}

// finishSweep is a sweep job's completion callback for
// fleet.Queue.Submit: the job ends with the submission's result set.
func (j *job) finishSweep(set *sweep.ResultSet) { j.finish(set, set.Err()) }

// JobStatus is the wire form of a job, served by GET /jobs{,/{id}}.
// Tune jobs additionally carry their full tune spec (search strategy
// and ladders) under "tune"; their done/total counts are evaluations,
// not grid cells.
type JobStatus struct {
	ID    string    `json:"id"`
	Spec  SweepSpec `json:"spec"`
	Tune  *TuneSpec `json:"tune,omitempty"`
	State string    `json:"state"`
	Total int       `json:"total"`
	Done  int       `json:"done"`
	Error string    `json:"error,omitempty"`
}

// snapshot reads the job under one lock: its status, its report (nil
// until done) and the channel its next change closes.
func (j *job) snapshot() (JobStatus, report, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:    j.id,
		Spec:  j.spec,
		Tune:  j.tuneSpec,
		State: j.state,
		Total: j.total,
		Done:  j.done,
		Error: j.errMsg,
	}, j.report, j.changed
}

// config wires a server; the zero value of every field selects a sane
// default.
type config struct {
	jobs         int          // sweep worker-pool size per local worker
	store        *store.Store // result store; nil = none
	localWorkers int          // in-process worker loops; -1 = none, 0 = 1
	leaseBatch   int
	maxPending   int
	leaseTTL     time.Duration
	stderr       io.Writer
	registry     *obs.Registry // metrics registry; nil = a fresh one
	logger       *slog.Logger  // structured log sink; nil = discard
	debug        bool          // mount /debug/pprof/
}

// server holds the cell queue, the job table and the sweep
// configuration shared by every submission.
type server struct {
	cfg    config
	queue  *fleet.Queue
	sweepM *sweep.Metrics
	tuneM  *tune.Metrics

	mu   sync.Mutex
	seq  int
	byID map[string]*job
	ids  []string // insertion order, for stable GET /jobs listings
}

// newServer builds a daemon handler with default fleet settings and
// one in-process worker — the single-node shape, and the shape most
// tests drive; st may be nil.
func newServer(jobs int, st *store.Store) http.Handler {
	return newServerCfg(config{jobs: jobs, store: st})
}

// newServerCfg builds the daemon's HTTP handler and starts its local
// worker loops. Every layer shares one metrics registry — the fleet
// queue, the store, the sweep engine and the tuner all
// register collectors or instruments on it, and the handler exposes it
// as GET /metrics (Prometheus text) and GET /debug/vars (JSON) behind
// the same middleware that instruments and access-logs every route.
func newServerCfg(cfg config) http.Handler {
	if cfg.localWorkers == 0 {
		cfg.localWorkers = 1
	} else if cfg.localWorkers < 0 {
		cfg.localWorkers = 0
	}
	if cfg.leaseBatch <= 0 {
		cfg.leaseBatch = 8
	}
	if cfg.stderr == nil {
		cfg.stderr = os.Stderr
	}
	if cfg.registry == nil {
		cfg.registry = obs.NewRegistry()
	}
	if cfg.logger == nil {
		cfg.logger = obs.Discard()
	}
	// A nil *store.Store must stay a nil sweep.Cache.
	var cache sweep.Cache
	if cfg.store != nil {
		cache = cfg.store
		cfg.store.Register(cfg.registry)
	}
	s := &server{
		cfg:    cfg,
		byID:   make(map[string]*job),
		sweepM: sweep.NewMetrics(cfg.registry),
		tuneM:  tune.NewMetrics(cfg.registry),
		queue: fleet.New(fleet.Options{
			Cache:      cache,
			MaxPending: cfg.maxPending,
			LeaseTTL:   cfg.leaseTTL,
			OnPutError: store.PutWarner(cfg.stderr),
			Registry:   cfg.registry,
		}),
	}
	// In-process workers run the remote workers' loop against the queue
	// itself. Their runners read and write no results — the queue probed
	// the store at submission and persists each distinct cell once at
	// completion — but traces pass through, so replay groups record once
	// per store lifetime.
	var traces sweep.Cache
	if cfg.store != nil {
		traces = traceOnlyCache{cfg.store}
	}
	for i := 0; i < cfg.localWorkers; i++ {
		name := fmt.Sprintf("local-%d", i)
		w := &fleetWorker{
			coord:  s.queue,
			name:   name,
			batch:  cfg.leaseBatch,
			runner: sweep.Runner{Jobs: cfg.jobs, Cache: traces, Metrics: s.sweepM, OnPutError: store.PutWarner(cfg.stderr)},
			log:    cfg.logger.With("worker", name),
		}
		go w.run(context.Background())
	}
	mux := http.NewServeMux()
	routes := []string{
		"POST /sweep",
		"POST /tune",
		"GET /jobs",
		"GET /jobs/{id}",
		"GET /jobs/{id}/events",
		"GET /results",
		"GET /meta",
		"POST /fleet/lease",
		"POST /fleet/complete",
		"POST /fleet/heartbeat",
		"GET /fleet",
		"GET /metrics",
		"GET /debug/vars",
	}
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("POST /tune", s.handleTune)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /results", s.handleResults)
	mux.HandleFunc("GET /meta", s.handleMeta)
	mux.HandleFunc("POST /fleet/lease", s.handleLease)
	mux.HandleFunc("POST /fleet/complete", s.handleComplete)
	mux.HandleFunc("POST /fleet/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("GET /fleet", s.handleFleet)
	mux.Handle("GET /metrics", cfg.registry.Handler())
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		cfg.registry.WriteJSON(w)
	})
	if cfg.debug {
		routes = append(routes, "/debug/pprof/")
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return obs.NewHTTPMetrics(cfg.registry, routes).Middleware(mux, cfg.logger)
}

// MetaWorkload is one selectable workload in the GET /meta listing.
type MetaWorkload struct {
	Name   string `json:"name"`
	Params string `json:"params"`
}

// MetaSystem is one machine in the GET /meta listing.
type MetaSystem struct {
	Name string `json:"name"`
	HWPF string `json:"hwpf_default"`
	Core string `json:"core_default"`
}

// MetaModel is one hardware-prefetcher or core-model axis value in
// GET /meta.
type MetaModel struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// MetaTune advertises the tuner's searchable axis bounds: the
// strategies POST /tune accepts and the default search ladders a spec
// with empty cs/depths/hoists gets (custom ladders may widen them).
// Variants lists what can be tuned — everything but the plain
// baseline.
type MetaTune struct {
	Strategies []string `json:"strategies"`
	Variants   []string `json:"variants"`
	Cs         []int64  `json:"cs"`
	Depths     []int    `json:"depths"`
	Hoists     []bool   `json:"hoists"`
}

// Meta is the GET /meta response: every axis a SweepSpec selects over,
// plus the tuner's searchable bounds.
type Meta struct {
	Qualities     []string                  `json:"qualities"`
	Workloads     map[string][]MetaWorkload `json:"workloads"`
	Systems       []MetaSystem              `json:"systems"`
	Variants      []string                  `json:"variants"`
	HWPrefetchers []MetaModel               `json:"hwprefetchers"`
	Cores         []MetaModel               `json:"cores"`
	Execs         []string                  `json:"execs"`
	Tune          MetaTune                  `json:"tune"`
}

// handleMeta enumerates the grid axes. ?quality restricts the workload
// listing to one pool (the first request for a quality constructs and
// memoizes that pool, which generates workload input data — a one-off
// cost per quality per process).
func (s *server) handleMeta(w http.ResponseWriter, r *http.Request) {
	qualities := workloads.Qualities()
	if q := r.URL.Query().Get("quality"); q != "" {
		if _, err := workloads.PoolByQuality(q); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		qualities = []string{q}
	}
	m := Meta{
		Qualities: workloads.Qualities(),
		Workloads: make(map[string][]MetaWorkload),
		Variants:  make([]string, 0, len(sweep.Variants())),
	}
	for _, q := range qualities {
		pool, _ := workloads.PoolByQuality(q)
		var ws []MetaWorkload
		for _, wl := range pool {
			ws = append(ws, MetaWorkload{Name: wl.Name, Params: wl.Params})
		}
		m.Workloads[q] = ws
	}
	for _, cfg := range uarch.All() {
		m.Systems = append(m.Systems, MetaSystem{Name: cfg.Name, HWPF: cfg.HWPrefetcherName(), Core: cfg.CoreName()})
	}
	for _, v := range sweep.Variants() {
		m.Variants = append(m.Variants, string(v))
	}
	m.HWPrefetchers = append(m.HWPrefetchers, MetaModel{
		Name:        sweep.HWPrefetcherDefault,
		Description: "keep each system's own model",
	})
	for _, name := range hwpf.Names() {
		m.HWPrefetchers = append(m.HWPrefetchers, MetaModel{Name: name, Description: hwpf.Describe(name)})
	}
	m.Cores = append(m.Cores, MetaModel{
		Name:        sweep.CoreDefault,
		Description: "keep each system's own timing model",
	})
	for _, name := range sim.CoreModels() {
		m.Cores = append(m.Cores, MetaModel{Name: name, Description: sim.DescribeCoreModel(name)})
	}
	for _, e := range sweep.ExecModes() {
		m.Execs = append(m.Execs, string(e))
	}
	m.Tune = MetaTune{
		Strategies: tune.StrategyAxis().Names(),
		Cs:         tune.DefaultCs,
		Depths:     tune.DefaultDepths,
		Hoists:     tune.DefaultHoists,
	}
	for _, v := range sweep.Variants() {
		if v != core.VariantPlain {
			m.Tune.Variants = append(m.Tune.Variants, string(v))
		}
	}
	writeJSON(w, http.StatusOK, m)
}

// writeJSON sends v as one compact JSON line. GET /results keeps its
// own emitters (the report's WriteJSON), whose bytes are pinned.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// SubmitReply is one accepted submission in the POST /sweep response.
type SubmitReply struct {
	ID    string `json:"id"`
	Cells int    `json:"cells"`
}

// handleSweep validates and submits a grid spec — or a JSON array of
// specs, admitted in order. Each spec becomes one job; the response
// returns immediately with id and cell count per job (a bare object
// for a bare spec, a list for a list). Overfull queue: 429 with a
// Retry-After header; specs already admitted from a list are reported
// in the error body's "submitted" field and keep running.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading spec: %v", err)
		return
	}
	subs, batch, err := prepareSweep(body, s.queue.MaxPending())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	replies := make([]SubmitReply, 0, len(subs))
	for _, sub := range subs {
		// A submission the store answers entirely finishes the job inside
		// Submit, so its results are servable when this handler replies.
		j := newJob(sub.spec, nil, len(sub.reqs))
		err := s.queue.Submit(sub.reqs, sub.spec.QualityName(), sub.spec.Priority, j.setProgress, j.finishSweep)
		var full fleet.ErrQueueFull
		if errors.As(err, &full) {
			w.Header().Set("Retry-After", strconv.Itoa(int(full.RetryAfter.Seconds()+0.5)))
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":     full.Error(),
				"submitted": replies,
			})
			return
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		s.add(j)
		replies = append(replies, SubmitReply{ID: j.id, Cells: len(sub.reqs)})
	}
	if batch {
		writeJSON(w, http.StatusAccepted, replies)
		return
	}
	writeJSON(w, http.StatusAccepted, replies[0])
}

// submission is one validated, expanded POST /sweep spec.
type submission struct {
	spec SweepSpec
	reqs []sweep.Request
}

// prepareSweep decodes a POST /sweep body and expands its specs. Every
// spec is validated, and the specs' cells are counted against limit,
// before any spec is expanded: a bad spec in a batch rejects the whole
// batch, and no request makes the daemon build more cells than its
// queue may hold live. Every error is the client's.
func prepareSweep(body []byte, limit int) (subs []submission, batch bool, err error) {
	specs, batch, err := decodeSpecs(body)
	if err != nil {
		return nil, batch, fmt.Errorf("decoding spec: %w", err)
	}
	grids := make([]sweep.Grid, len(specs))
	total := 0 // <= limit, so limit-total cannot overflow
	for i, spec := range specs {
		if grids[i], err = validateWireSpec(spec); err != nil {
			return nil, batch, err
		}
		n := grids[i].Size()
		if n > limit-total {
			return nil, batch, fmt.Errorf("the request asks for more cells than the queue's bound of %d live cells", limit)
		}
		total += n
	}
	for i, spec := range specs {
		subs = append(subs, submission{spec: spec, reqs: grids[i].Expand()})
	}
	return subs, batch, nil
}

// decodeSpecs parses a POST /sweep body: one spec object, or an array
// of them; batch reports which form arrived, so the response can
// mirror it.
func decodeSpecs(body []byte) (specs []SweepSpec, batch bool, err error) {
	for _, c := range body {
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		case '[':
			batch = true
		}
		break
	}
	if batch {
		err = json.Unmarshal(body, &specs)
		if err == nil && len(specs) == 0 {
			err = fmt.Errorf("empty spec list")
		}
		return specs, true, err
	}
	var spec SweepSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, false, err
	}
	return []SweepSpec{spec}, false, nil
}

// newJob builds a running job, not yet registered.
func newJob(spec SweepSpec, tsp *TuneSpec, total int) *job {
	return &job{spec: spec, tuneSpec: tsp, total: total, state: stateRunning, changed: make(chan struct{})}
}

// add registers a job under the next id.
func (s *server) add(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j.id = "job-" + strconv.Itoa(s.seq)
	s.byID[j.id] = j
	s.ids = append(s.ids, j.id)
	s.evictLocked()
}

// evictLocked drops the oldest terminal jobs (result sets included)
// while the table exceeds maxJobs; the caller holds s.mu.
func (s *server) evictLocked() {
	for i := 0; len(s.byID) > maxJobs && i < len(s.ids); {
		if st, _, _ := s.byID[s.ids[i]].snapshot(); st.State == stateRunning {
			i++
			continue
		}
		delete(s.byID, s.ids[i])
		s.ids = append(s.ids[:i], s.ids[i+1:]...)
	}
}

func (s *server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	list := make([]*job, 0, len(s.ids))
	for _, id := range s.ids {
		list = append(list, s.byID[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(list))
	for i, j := range list {
		out[i], _, _ = j.snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st, _, _ := j.snapshot()
	writeJSON(w, http.StatusOK, st)
}

// Event is one GET /jobs/{id}/events payload: a progress snapshot;
// the terminal event carries the job's final state and closes the
// stream.
type Event struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	State string `json:"state"`
}

// handleEvents streams a job's progress as Server-Sent Events: one
// `data:` line per change the reader sees (counts are monotonic,
// changes made while a line is written coalesce into the next),
// ending with the terminal done/failed event. A reader joining a
// finished job gets exactly the terminal event.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	enc := json.NewEncoder(w)
	for {
		st, _, changed := j.snapshot()
		if _, err := io.WriteString(w, "data: "); err != nil {
			return
		}
		if err := enc.Encode(Event{Done: st.Done, Total: st.Total, State: st.State}); err != nil { // Encode appends the \n
			return
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return
		}
		fl.Flush()
		if st.State != stateRunning {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
	}
}

// handleResults streams a completed job's report — a sweep's result
// set or a tune job's report, through the same emitters as swpfbench:
// JSON by default, CSV with format=csv.
func (s *server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	j := s.lookup(id)
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	st, rep, _ := j.snapshot()
	switch st.State {
	case stateRunning:
		writeError(w, http.StatusConflict, "job %s not finished (%d/%d cells)", id, st.Done, st.Total)
		return
	case stateFailed:
		writeError(w, http.StatusInternalServerError, "job %s failed: %s", id, st.Error)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		rep.WriteJSON(w)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		rep.WriteCSV(w)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (have json, csv)", format)
	}
}

// LeaseRequest is the POST /fleet/lease body.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

// leaseWait bounds how long POST /fleet/lease waits for work before it
// answers 204, well inside the worker's 30 s client timeout.
const leaseWait = 10 * time.Second

// handleLease hands the worker a batch of cells as soon as any is
// pending, waiting up to leaseWait for one; 204 means nothing arrived
// in that time, and the worker asks again at once.
func (s *server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding lease request: %v", err)
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "lease request missing worker name")
		return
	}
	if req.Max <= 0 {
		req.Max = s.cfg.leaseBatch
	}
	ctx, cancel := context.WithTimeout(r.Context(), leaseWait)
	defer cancel()
	l := s.queue.LeaseWait(ctx, req.Worker, req.Max)
	if l == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, l)
}

// CompleteRequest is the POST /fleet/complete body.
type CompleteRequest struct {
	Lease   string             `json:"lease"`
	Worker  string             `json:"worker"`
	Results []fleet.CellResult `json:"results"`
}

func (s *server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding completion: %v", err)
		return
	}
	accepted, dropped := s.queue.Complete(req.Lease, req.Worker, req.Results)
	writeJSON(w, http.StatusOK, map[string]int{"accepted": accepted, "dropped": dropped})
}

// HeartbeatRequest is the POST /fleet/heartbeat body.
type HeartbeatRequest struct {
	Lease  string `json:"lease"`
	Worker string `json:"worker"`
}

func (s *server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding heartbeat: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": s.queue.Heartbeat(req.Lease, req.Worker)})
}

// FleetStatus is the GET /fleet response.
type FleetStatus struct {
	Queue fleet.Stats  `json:"queue"`
	Store *store.Stats `json:"store,omitempty"`
}

func (s *server) handleFleet(w http.ResponseWriter, r *http.Request) {
	out := FleetStatus{Queue: s.queue.Stats()}
	if s.cfg.store != nil {
		st := s.cfg.store.Stats()
		out.Store = &st
	}
	writeJSON(w, http.StatusOK, out)
}

// traceOnlyCache is the in-process workers' view of the daemon's
// store: result Gets and Puts are no-ops, trace traffic passes through.
type traceOnlyCache struct{ tc sweep.TraceCache }

func (c traceOnlyCache) Get(sweep.Request) (*core.Result, bool) { return nil, false }
func (c traceOnlyCache) Put(sweep.Request, *core.Result) error  { return nil }
func (c traceOnlyCache) GetTrace(r sweep.Request) (*trace.Trace, bool) {
	return c.tc.GetTrace(r)
}
func (c traceOnlyCache) PutTrace(r sweep.Request, t *trace.Trace) error {
	return c.tc.PutTrace(r, t)
}
