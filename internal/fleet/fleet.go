// Package fleet is the shared job queue behind the distributed sweep
// fabric: it decomposes submitted request lists into *cells* — the
// content-addressed unit of simulation work — dedupes them fleet-wide,
// and hands them out to workers under expiring leases.
//
// The queue is the coordinator's data structure; cmd/swpfd wraps it in
// HTTP (POST /fleet/lease, /fleet/complete, /fleet/heartbeat) for
// remote worker processes, and its in-process workers run the same
// worker loop against the queue directly: both rebuild every cell from
// its wire spec and report core.ResultData snapshots. The properties
// the fabric rests on:
//
//   - Idempotent dedupe. A cell's identity is a canonical hash of
//     (workload name+params, full machine config, variant, options) —
//     the same coordinates internal/store keys results by, and like
//     store keys it excludes the execution mode (direct and replay
//     results are byte-identical). Overlapping grids from concurrent
//     clients attach to the same live cell, so every distinct cell is
//     simulated exactly once fleet-wide; each submission still gets its
//     own outcome slot, labelled with its own requested exec mode.
//   - Leases, not assignments. Workers pull batches of cells under a
//     lease with a TTL; a worker that dies simply stops heartbeating
//     and its cells return to the queue when the lease expires — no
//     cell is ever lost, and one whose leases expire MaxExpiries times
//     fails instead of circulating forever. Duplicate completions (a
//     slow worker racing a re-lease) are dropped idempotently, so no
//     cell's result is ever accepted, or persisted, twice.
//   - Bounded backpressure. Live cells (pending + leased) are capped;
//     a submission that would exceed the cap is rejected atomically
//     with ErrQueueFull before anything is enqueued — cmd/swpfd maps
//     this to 429 + Retry-After.
//   - Priorities. Cells inherit their submission's priority; higher
//     priorities lease first, FIFO within a priority. A cell shared by
//     several submissions keeps the highest priority it has been asked
//     for at.
//   - Replay grouping. Cells requested with exec=replay lease as whole
//     (workload, variant, options) groups, so the worker that records
//     the group's trace replays every machine × hwpf cell of it —
//     preserving the one-interpretation-per-group amortization of
//     internal/trace across the fleet.
//
// Expiry is lazy: expired leases are reaped on the next Submit,
// LeaseWait, Complete, Heartbeat or Stats call rather than by a
// background timer, which keeps the queue deterministic under test
// clocks. A LeaseWait sleeper wakes at the earliest lease deadline to
// make that call.
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// KeyOf returns the canonical cell identity of a request: a SHA-256
// hex digest over workload name+params, the full machine
// configuration, the variant and the options. The execution mode is
// deliberately excluded — direct and replay produce byte-identical
// results, so they are the same cell.
func KeyOf(r sweep.Request) string {
	doc := struct {
		Workload string
		Params   string
		System   *sim.Config
		Variant  string
		Options  core.Options
	}{r.Workload.Name, r.Workload.Params, r.System, string(r.Variant), r.Options}
	b, err := json.Marshal(doc)
	if err != nil {
		// Every field is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("fleet: marshal key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// CellSpec is the wire form of one cell, self-contained enough for a
// worker process to reconstruct the request: the workload is named (a
// worker rebuilds it from its own pools, cross-checked against
// Params), the machine configuration travels in full.
type CellSpec struct {
	Quality  string          `json:"quality"`
	Workload string          `json:"workload"`
	Params   string          `json:"params"`
	System   json.RawMessage `json:"system"`
	Variant  string          `json:"variant"`
	Options  core.Options    `json:"options"`
	Exec     string          `json:"exec,omitempty"`
}

// SpecFor builds the wire form of a request. quality names the
// workload pool the submitting spec drew from, so workers resolve the
// same workload by name.
func SpecFor(quality string, r sweep.Request) CellSpec {
	sys, err := json.Marshal(r.System)
	if err != nil {
		// A configuration is plain data, and KeyOf marshals it first.
		panic(fmt.Sprintf("fleet: marshal system: %v", err))
	}
	return CellSpec{
		Quality:  quality,
		Workload: r.Workload.Name,
		Params:   r.Workload.Params,
		System:   sys,
		Variant:  string(r.Variant),
		Options:  r.Options,
		Exec:     string(r.Exec),
	}
}

// Request reconstructs the executable request from the wire form. The
// workload is resolved by name out of this process's memoized pool for
// the spec's quality (workloads.PoolByQuality), and its Params must
// match the spec's — a mismatch means the two processes disagree about
// what the name denotes, and running it would silently compute the
// wrong cell. A machine configuration the simulator would reject is an
// error here, before it reaches it.
//
// configs, when non-nil, interns decoded configurations by their wire
// bytes: the cells of one lease that share a machine then share one
// *sim.Config, and so one recycled simulator per sweep worker
// (core.Context keeps its simulators by configuration pointer).
func (c CellSpec) Request(configs map[string]*sim.Config) (sweep.Request, error) {
	pool, err := workloads.PoolByQuality(c.Quality)
	if err != nil {
		return sweep.Request{}, err
	}
	i := slices.IndexFunc(pool, func(w *workloads.Workload) bool { return w.Name == c.Workload })
	if i < 0 {
		return sweep.Request{}, fmt.Errorf("fleet: unknown workload %q in the %s pool", c.Workload, c.Quality)
	}
	if wl := pool[i]; wl.Params != c.Params {
		return sweep.Request{}, fmt.Errorf("fleet: workload %s/%s params mismatch: coordinator %q, worker %q",
			c.Quality, c.Workload, c.Params, wl.Params)
	}
	cfg := configs[string(c.System)]
	if cfg == nil {
		cfg = new(sim.Config)
		if err := json.Unmarshal(c.System, cfg); err != nil {
			return sweep.Request{}, fmt.Errorf("fleet: unmarshal system: %w", err)
		}
		if err := cfg.Validate(); err != nil {
			return sweep.Request{}, fmt.Errorf("fleet: %w", err)
		}
		if configs != nil {
			configs[string(c.System)] = cfg
		}
	}
	return sweep.Request{
		Workload: pool[i],
		System:   cfg,
		Variant:  core.Variant(c.Variant),
		Options:  c.Options,
		Exec:     core.ExecMode(c.Exec),
	}, nil
}

// LeaseCell is one cell inside a lease: the key the worker must echo
// back, plus the wire spec.
type LeaseCell struct {
	Key  string   `json:"key"`
	Spec CellSpec `json:"spec"`
}

// Lease is a batch of cells handed to one worker. The worker must
// Complete (or keep Heartbeating) before TTL elapses, or the cells
// return to the queue.
type Lease struct {
	ID    string      `json:"id"`
	TTLMS int64       `json:"ttl_ms"`
	Cells []LeaseCell `json:"cells"`
}

// TTL returns the lease's time-to-live.
func (l *Lease) TTL() time.Duration { return time.Duration(l.TTLMS) * time.Millisecond }

// CellResult is one cell's outcome in a completion report.
type CellResult struct {
	Key    string           `json:"key"`
	Err    string           `json:"err,omitempty"`
	Result *core.ResultData `json:"result,omitempty"`
}

// ErrQueueFull is returned by Submit when admitting the submission's
// new cells would exceed the live-cell bound. Nothing was enqueued —
// admission is all-or-nothing — so the client can simply retry after
// RetryAfter.
type ErrQueueFull struct {
	Live, New, Limit int
	RetryAfter       time.Duration
}

func (e ErrQueueFull) Error() string {
	return fmt.Sprintf("queue full: %d cells live, %d new would exceed the %d-cell limit (retry after %s)",
		e.Live, e.New, e.Limit, e.RetryAfter)
}

// submission is one Submit call: its outcome slots and its callbacks.
type submission struct {
	onProgress func(done, total int)
	onDone     func(*sweep.ResultSet)

	mu   sync.Mutex
	outs []sweep.Outcome
	done int
}

// deliver fills one outcome slot, reports progress, and after the last
// slot hands the set to onDone.
func (s *submission) deliver(idx int, res *core.Result, err error) {
	s.mu.Lock()
	s.outs[idx].Result = res
	s.outs[idx].Err = err
	s.done++
	done := s.done
	s.mu.Unlock()
	if s.onProgress != nil {
		s.onProgress(done, len(s.outs))
	}
	if done == len(s.outs) && s.onDone != nil {
		s.onDone(&sweep.ResultSet{Outcomes: s.outs})
	}
}

// cellState tracks where a live cell is.
type cellState int

const (
	cellPending cellState = iota
	cellLeased
)

// replayGroup identifies the functional coordinates a replay trace is
// shared across — machine and hwpf absent, exactly like the sweep
// engine's grouping.
type replayGroup struct {
	name, params string
	variant      core.Variant
	options      core.Options
}

// waiter is one submission slot waiting on a cell.
type waiter struct {
	s   *submission
	idx int
}

// cell is one live unit of simulation work.
type cell struct {
	key      string
	req      sweep.Request
	spec     CellSpec
	prio     int
	seq      int64
	group    *replayGroup // non-nil when leased as a replay group
	state    cellState
	leaseID  string
	leasedAt time.Time // last time the cell was handed to a worker
	expiries int       // leases of the cell that expired
	waiters  []waiter
}

// MaxExpiries is how many of a cell's leases may expire before the
// queue fails it: a cell that kills every worker it reaches (say by
// running it out of memory) must not circulate through the fleet
// forever. Its waiters receive an error naming the attempts and the
// last worker; nothing is persisted, so a later submission of the cell
// starts afresh.
const MaxExpiries = 3

type lease struct {
	id       string
	worker   string
	cells    []*cell
	deadline time.Time
}

// Options configures a Queue.
type Options struct {
	// Cache, when non-nil, answers cells at submission time and
	// persists accepted completions — exactly once per distinct cell.
	Cache sweep.Cache
	// MaxPending bounds live cells (pending + leased); 0 selects
	// DefaultMaxPending.
	MaxPending int
	// LeaseTTL is how long a lease lives between heartbeats; 0 selects
	// DefaultLeaseTTL.
	LeaseTTL time.Duration
	// OnPutError receives cache-persistence failures (best-effort,
	// like sweep.Runner's).
	OnPutError func(sweep.Request, error)
	// Now is the clock; nil selects time.Now. Tests inject one to make
	// lease expiry deterministic.
	Now func() time.Time
	// Registry receives the queue's metrics: every Stats field as a
	// collector (one Stats() call per scrape, so all queue series come
	// from a single acquisition of the queue lock and are mutually
	// consistent — and identical to what GET /fleet reports), plus the
	// cell execution-latency histogram. Nil keeps the instruments on a
	// private, unscraped registry so the queue code stays branch-free.
	Registry *obs.Registry
}

// Defaults.
const (
	DefaultMaxPending = 65536
	DefaultLeaseTTL   = 2 * time.Minute
)

// Stats is a snapshot of queue state and lifetime counters.
type Stats struct {
	// Live state.
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Leases  int `json:"leases"`
	// Lifetime counters.
	Submissions int64 `json:"submissions"`
	CellsSeen   int64 `json:"cells_seen"`   // outcome slots ever submitted
	CacheHits   int64 `json:"cache_hits"`   // slots answered by the cache at submit
	DedupHits   int64 `json:"dedup_hits"`   // slots attached to an already-live cell
	Completed   int64 `json:"completed"`    // distinct cells accepted from workers
	Failed      int64 `json:"failed"`       // distinct cells completed with an error
	Requeued    int64 `json:"requeued"`     // cells returned by expired leases
	DupDropped  int64 `json:"dup_dropped"`  // duplicate/late completions dropped
	MaxPending  int   `json:"max_pending"`  // the live-cell bound
	LeaseTTLMS  int64 `json:"lease_ttl_ms"` // current lease TTL
	// Workers ever seen, most recent contact first.
	Workers []WorkerInfo `json:"workers,omitempty"`
}

// WorkerInfo is one worker's liveness entry.
type WorkerInfo struct {
	Name     string    `json:"name"`
	LastSeen time.Time `json:"last_seen"`
}

// Queue is the shared cell queue. All methods are safe for concurrent
// use.
type Queue struct {
	cache      sweep.Cache
	maxPending int
	ttl        time.Duration
	onPutError func(sweep.Request, error)
	now        func() time.Time

	mu       sync.Mutex
	cells    map[string]*cell
	pending  []*cell // sorted: priority desc, then seq asc
	leases   map[string]*lease
	seq      int64
	leaseSeq int64
	workers  map[string]time.Time
	wake     chan struct{}
	// abandoned holds cells expireLocked failed, for unlock to deliver
	// once the lock is released.
	abandoned []abandonedCell

	submissions, cellsSeen, cacheHits, dedupHits int64
	completed, failed, requeued, dupDropped      int64

	// cellSeconds observes lease→accepted-completion latency per cell.
	// Always non-nil (a private registry backs it when Options.Registry
	// is nil), so the accounting sites stay branch-free.
	cellSeconds *obs.Histogram
}

// New builds a queue.
func New(opt Options) *Queue {
	if opt.MaxPending <= 0 {
		opt.MaxPending = DefaultMaxPending
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = DefaultLeaseTTL
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	if opt.Registry == nil {
		opt.Registry = obs.NewRegistry()
	}
	q := &Queue{
		cache:      opt.Cache,
		maxPending: opt.MaxPending,
		ttl:        opt.LeaseTTL,
		onPutError: opt.OnPutError,
		now:        opt.Now,
		cells:      make(map[string]*cell),
		leases:     make(map[string]*lease),
		workers:    make(map[string]time.Time),
		wake:       make(chan struct{}),
	}
	q.cellSeconds = opt.Registry.Histogram("swpf_fleet_cell_seconds",
		"Cell execution latency from lease to accepted completion, in seconds.", nil)
	opt.Registry.Collect(q.collect)
	return q
}

// collect emits every Stats field as metric samples. The single
// Stats() call snapshots under one acquisition of the queue lock, so
// all queue series within a scrape are mutually consistent — and
// byte-for-byte the numbers GET /fleet serves, which renders from the
// same snapshot function.
func (q *Queue) collect(emit func(obs.Sample)) {
	s := q.Stats()
	gauge := func(name, help string, v int) {
		emit(obs.Sample{Name: name, Help: help, Kind: obs.KindGauge, Value: float64(v)})
	}
	counter := func(name, help string, v int64) {
		emit(obs.Sample{Name: name, Help: help, Kind: obs.KindCounter, Value: float64(v)})
	}
	gauge("swpf_queue_pending", "Cells waiting to be leased.", s.Pending)
	gauge("swpf_queue_leased", "Cells currently out under a lease.", s.Leased)
	gauge("swpf_queue_leases", "Live leases.", s.Leases)
	gauge("swpf_queue_workers", "Workers ever seen by the coordinator.", len(s.Workers))
	gauge("swpf_queue_max_pending", "The live-cell admission bound.", s.MaxPending)
	counter("swpf_queue_submissions_total", "Submissions accepted.", s.Submissions)
	counter("swpf_queue_cells_total", "Outcome slots ever submitted.", s.CellsSeen)
	counter("swpf_queue_cache_hits_total", "Slots answered by the result store at submit.", s.CacheHits)
	counter("swpf_queue_dedup_hits_total", "Slots attached to an already-live cell.", s.DedupHits)
	counter("swpf_queue_completed_total", "Distinct cells accepted from workers.", s.Completed)
	counter("swpf_queue_failed_total", "Distinct cells completed with an error.", s.Failed)
	counter("swpf_queue_requeued_total", "Cells returned to the queue by expired leases.", s.Requeued)
	counter("swpf_queue_dup_dropped_total", "Duplicate or late completions dropped.", s.DupDropped)
}

// MaxPending returns the queue's live-cell bound.
func (q *Queue) MaxPending() int { return q.maxPending }

// Submit enqueues a request list at the given priority. quality names
// the workload pool the requests were drawn from; the cells it enqueues
// carry it in their wire specs (SpecFor), which are built only for
// them. Cache hits are answered immediately, duplicates of live cells
// attach as waiters, and only genuinely new cells enter the queue —
// atomically: if they would exceed the live-cell bound, ErrQueueFull
// is returned, nothing is enqueued and no callback runs.
//
// onProgress, when non-nil, is called after each outcome the
// submission receives with the running completion count and the
// submission's total, like sweep.Runner.OnProgress: for cache hits
// before Submit returns, for the rest from the Complete calls that
// deliver them, concurrently and possibly out of order. onDone, when
// non-nil, is called exactly once with the result set, right after the
// onProgress call that reaches done == total; for an all-hit or empty
// submission that is before Submit returns. Neither runs under the
// queue lock, so either may call back into the queue.
func (q *Queue) Submit(reqs []sweep.Request, quality string, prio int, onProgress func(done, total int), onDone func(*sweep.ResultSet)) error {
	s := &submission{onProgress: onProgress, onDone: onDone, outs: make([]sweep.Outcome, len(reqs))}
	for i, r := range reqs {
		s.outs[i].Request = r
	}

	q.mu.Lock()
	q.expireLocked()
	q.submissions++
	q.cellsSeen += int64(len(reqs))

	// Probe the cache under the lock: Complete persists under it too, so
	// a cell is never both gone from the live table and absent from the
	// cache here, and re-enqueuing a completed cell cannot happen.
	// Admission control then counts the genuinely new cells.
	hits := make([]*core.Result, len(reqs))
	newKeys := make(map[string]bool)
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		if q.cache != nil {
			if res, ok := q.cache.Get(r); ok {
				hits[i] = res
				q.cacheHits++
				continue
			}
		}
		keys[i] = KeyOf(r)
		if q.cells[keys[i]] == nil {
			newKeys[keys[i]] = true
		}
	}
	if live := len(q.cells); live+len(newKeys) > q.maxPending {
		q.unlock()
		return ErrQueueFull{Live: live, New: len(newKeys), Limit: q.maxPending, RetryAfter: time.Second}
	}

	enqueued := false
	for i, r := range reqs {
		if hits[i] != nil {
			continue
		}
		c := q.cells[keys[i]]
		if c != nil {
			q.dedupHits++
			if prio > c.prio && c.state == cellPending {
				q.removePendingLocked(c)
				c.prio = prio
				q.insertPendingLocked(c)
			} else if prio > c.prio {
				c.prio = prio
			}
		} else {
			q.seq++
			c = &cell{key: keys[i], req: r, spec: SpecFor(quality, r), prio: prio, seq: q.seq}
			if r.ExecMode() == core.ExecReplay {
				c.group = &replayGroup{r.Workload.Name, r.Workload.Params, r.Variant, r.Options}
			}
			q.cells[c.key] = c
			q.insertPendingLocked(c)
			enqueued = true
		}
		c.waiters = append(c.waiters, waiter{s, i})
	}
	if enqueued {
		q.notifyLocked()
	}
	q.unlock()

	// Deliver cache hits after releasing the queue lock. An all-hit (or
	// empty) submission finishes here without ever waking a worker.
	for i, res := range hits {
		if res != nil {
			s.deliver(i, res, nil)
		}
	}
	if len(reqs) == 0 && onDone != nil {
		onDone(&sweep.ResultSet{Outcomes: s.outs})
	}
	return nil
}

// insertPendingLocked inserts keeping the (priority desc, seq asc)
// order.
func (q *Queue) insertPendingLocked(c *cell) {
	i := sort.Search(len(q.pending), func(i int) bool {
		p := q.pending[i]
		return p.prio < c.prio || (p.prio == c.prio && p.seq > c.seq)
	})
	q.pending = append(q.pending, nil)
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = c
	c.state = cellPending
}

func (q *Queue) removePendingLocked(c *cell) {
	for i, p := range q.pending {
		if p == c {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return
		}
	}
}

// notifyLocked wakes every LeaseWait sleeper.
func (q *Queue) notifyLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// LeaseWait hands the worker a batch of up to max pending cells,
// highest priority first. A replay cell pulls its entire pending group
// into the lease — possibly exceeding max — so one worker records the
// group's trace and replays every cell of it. With nothing pending it
// waits for work: it sleeps until a submission or a requeue wakes it,
// or until the earliest outstanding lease's deadline passes, so an
// expired lease's cells reach a waiting worker without any poll, and
// then tries again. It returns nil once ctx ends; under an ended ctx
// it leases only what is pending now. Cells and the wake channel are
// read under one lock, so no wake-up is lost.
func (q *Queue) LeaseWait(ctx context.Context, worker string, max int) *Lease {
	for {
		q.mu.Lock()
		if l := q.leaseLocked(worker, max); l != nil {
			q.unlock()
			return l
		}
		wake := q.wake
		var first time.Time // the earliest lease deadline
		for _, o := range q.leases {
			if first.IsZero() || o.deadline.Before(first) {
				first = o.deadline
			}
		}
		var expire <-chan time.Time
		if !first.IsZero() {
			expire = time.After(first.Sub(q.now()))
		}
		q.unlock()
		select {
		case <-wake:
		case <-expire:
		case <-ctx.Done():
			return nil
		}
	}
}

// leaseLocked leases what is pending now, or returns nil.
func (q *Queue) leaseLocked(worker string, max int) *Lease {
	if max <= 0 {
		max = 1
	}
	q.expireLocked()
	q.workers[worker] = q.now()
	if len(q.pending) == 0 {
		return nil
	}
	q.leaseSeq++
	now := q.now()
	l := &lease{id: "lease-" + strconv.FormatInt(q.leaseSeq, 10), worker: worker, deadline: now.Add(q.ttl)}
	take := func(c *cell) {
		c.state = cellLeased
		c.leaseID = l.id
		c.leasedAt = now
		l.cells = append(l.cells, c)
	}
	groups := make(map[replayGroup]bool)
	for _, c := range q.pending {
		if len(l.cells) >= max && (c.group == nil || !groups[*c.group]) {
			break
		}
		if c.group != nil {
			if !groups[*c.group] && len(l.cells) > 0 {
				// A fresh replay group starts its own lease; mixing it
				// into a half-full direct batch would split groups
				// across leases on the next call.
				break
			}
			groups[*c.group] = true
		}
		take(c)
	}
	// Pull the rest of any started replay group, wherever it sits in
	// the pending order.
	if len(groups) > 0 {
		for _, c := range q.pending {
			if c.state != cellLeased && c.group != nil && groups[*c.group] {
				take(c)
			}
		}
	}
	// Remove the taken cells from pending.
	kept := q.pending[:0]
	for _, c := range q.pending {
		if c.state == cellPending {
			kept = append(kept, c)
		}
	}
	q.pending = kept
	q.leases[l.id] = l

	out := &Lease{ID: l.id, TTLMS: q.ttl.Milliseconds()}
	for _, c := range l.cells {
		out.Cells = append(out.Cells, LeaseCell{Key: c.key, Spec: c.spec})
	}
	return out
}

// Heartbeat extends a lease's deadline; false means the lease is gone
// (expired and reaped, or already completed) and the worker's results
// may be dropped as duplicates.
func (q *Queue) Heartbeat(id, worker string) bool {
	q.mu.Lock()
	defer q.unlock()
	q.expireLocked()
	q.workers[worker] = q.now()
	l, ok := q.leases[id]
	if ok {
		l.deadline = q.now().Add(q.ttl)
	}
	return ok
}

// Complete accepts a worker's results for a lease. Results are matched
// to live cells by key, idempotently: keys that are unknown or no
// longer owned by any lease (already completed elsewhere) are dropped,
// never double-counted and never re-persisted. Cells of the lease
// missing from the report are requeued. Returns accepted and dropped
// counts.
func (q *Queue) Complete(id, worker string, results []CellResult) (accepted, dropped int) {
	type delivery struct {
		c   *cell
		res *core.Result
		err error
	}
	var deliveries []delivery

	q.mu.Lock()
	q.expireLocked()
	q.workers[worker] = q.now()
	l := q.leases[id]
	delete(q.leases, id)
	for _, r := range results {
		c := q.cells[r.Key]
		if c == nil || (c.state == cellLeased && c.leaseID != id) {
			// Unknown (already completed) or re-leased to a live worker
			// after this lease expired: the other completion wins.
			q.dupDropped++
			dropped++
			continue
		}
		if c.state == cellPending {
			// Expired and requeued, but not yet re-leased: this late
			// result is still perfectly good — accept it.
			q.removePendingLocked(c)
		}
		delete(q.cells, c.key)
		d := delivery{c: c}
		if r.Err != "" {
			d.err = fmt.Errorf("%s", r.Err)
			q.failed++
		} else if r.Result == nil {
			d.err = fmt.Errorf("fleet: worker %s reported cell %s with neither result nor error", worker, r.Key[:12])
			q.failed++
		} else {
			d.res = r.Result.Result(c.req.Workload.Name, c.req.System.Name, c.req.Variant)
		}
		q.completed++
		accepted++
		if !c.leasedAt.IsZero() {
			q.cellSeconds.Observe(q.now().Sub(c.leasedAt).Seconds())
		}
		deliveries = append(deliveries, d)
	}
	// Anything the lease held but the report omitted goes back in the
	// queue.
	if l != nil {
		requeued := false
		for _, c := range l.cells {
			if c.state == cellLeased && c.leaseID == id && q.cells[c.key] == c {
				c.leaseID = ""
				q.insertPendingLocked(c)
				q.requeued++
				requeued = true
			}
		}
		if requeued {
			q.notifyLocked()
		}
	}
	// Persist while still holding the lock: a completed cell must never
	// be simultaneously gone from the live table and absent from the
	// cache, or a Submit would re-enqueue it and the fleet would
	// simulate — and persist — the cell twice. Submit probes the cache
	// under this lock, so this ordering makes "store Puts == distinct
	// cells" hold unconditionally.
	for _, d := range deliveries {
		if d.err == nil && q.cache != nil {
			if perr := q.cache.Put(d.c.req, d.res); perr != nil && q.onPutError != nil {
				q.onPutError(d.c.req, perr)
			}
		}
	}
	q.unlock()

	// Fan out after dropping the queue lock: delivery runs the
	// submissions' callbacks.
	for _, d := range deliveries {
		for _, w := range d.c.waiters {
			w.s.deliver(w.idx, d.res, d.err)
		}
	}
	return accepted, dropped
}

// abandonedCell is a cell failed for its expiries, awaiting delivery.
type abandonedCell struct {
	c   *cell
	err error
}

// expireLocked reaps leases past their deadline, requeuing their
// cells, or failing a cell whose MaxExpiries-th lease this was (unlock
// delivers the failure).
func (q *Queue) expireLocked() {
	now := q.now()
	requeued := false
	for id, l := range q.leases {
		if !l.deadline.Before(now) {
			continue
		}
		delete(q.leases, id)
		for _, c := range l.cells {
			if c.state != cellLeased || c.leaseID != id || q.cells[c.key] != c {
				continue
			}
			c.leaseID = ""
			if c.expiries++; c.expiries >= MaxExpiries {
				delete(q.cells, c.key)
				q.failed++
				q.abandoned = append(q.abandoned, abandonedCell{c, fmt.Errorf(
					"fleet: cell %s abandoned after %d leases expired, the last held by worker %s", c.key[:12], c.expiries, l.worker)})
				continue
			}
			q.insertPendingLocked(c)
			q.requeued++
			requeued = true
		}
	}
	if requeued {
		q.notifyLocked()
	}
}

// unlock releases the queue lock, then fails the waiters of the cells
// expireLocked abandoned: delivery runs the submissions' callbacks,
// which must not run under the queue lock.
func (q *Queue) unlock() {
	abandoned := q.abandoned
	q.abandoned = nil
	q.mu.Unlock()
	for _, a := range abandoned {
		for _, w := range a.c.waiters {
			w.s.deliver(w.idx, nil, a.err)
		}
	}
}

// Stats snapshots the queue.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.unlock()
	q.expireLocked()
	s := Stats{
		Pending:     len(q.pending),
		Leased:      len(q.cells) - len(q.pending),
		Leases:      len(q.leases),
		Submissions: q.submissions,
		CellsSeen:   q.cellsSeen,
		CacheHits:   q.cacheHits,
		DedupHits:   q.dedupHits,
		Completed:   q.completed,
		Failed:      q.failed,
		Requeued:    q.requeued,
		DupDropped:  q.dupDropped,
		MaxPending:  q.maxPending,
		LeaseTTLMS:  q.ttl.Milliseconds(),
	}
	for name, seen := range q.workers {
		s.Workers = append(s.Workers, WorkerInfo{Name: name, LastSeen: seen})
	}
	sort.Slice(s.Workers, func(i, j int) bool {
		if !s.Workers[i].LastSeen.Equal(s.Workers[j].LastSeen) {
			return s.Workers[i].LastSeen.After(s.Workers[j].LastSeen)
		}
		return s.Workers[i].Name < s.Workers[j].Name
	})
	return s
}
