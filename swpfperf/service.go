package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// The service load: a closed loop of svcClients clients, each waiting
// for its job's results before submitting the next, against a
// coordinator with no local workers and one worker process running
// svcWorkerJobs sweep goroutines. It is one pass of fixed work: a
// second pass against the same store would be answered from it.
const (
	svcClients       = 4
	svcJobsPerClient = 32
	svcWorkerJobs    = 2
	// svcExtraSetups daemon starts precede the rounds, so setup_s is a
	// median of at least that many plus one.
	svcExtraSetups = 4
)

// The axis space jobs draw from. Every job is a random subset of the
// generated-kernel (gen) space — 4 of its 16 workloads × 2 machines ×
// 2 hardware prefetchers × 2 variants under one core model, 32 cells —
// so later jobs overlap earlier ones and a little under half of all
// cells are answered from the store or by a live duplicate. Only gen
// cells are drawn: they cost a fraction of a millisecond, so the
// worker spends most of a round outside simulation; NOTES.md gives the
// measured split. The warm-up job's cells (indirect-only) lie outside
// the space.
const svcQuality = "gen"

var (
	svcSystems  = []string{"Haswell", "XeonPhi", "A57", "A53"}
	svcHWPF     = []string{"none", "stride", "nextline", "ghb", "imp"}
	svcVariants = []string{"plain", "auto", "icc"}
	svcCores    = []string{"interval", "ooo", "inorder"}
)

// svcJob is one job of the load and what became of it.
type svcJob struct {
	label string // "c<client>j<seq>"
	spec  sweep.Spec
	reqs  []sweep.Request

	id         string
	turnaround float64
	records    []sweep.Record
	err        error
}

// pick returns k distinct elements of xs, in xs order.
func pick(r *rand.Rand, xs []string, k int) []string {
	idx := r.Perm(len(xs))[:k]
	out := make([]string, 0, k)
	for i, x := range xs {
		for _, j := range idx {
			if i == j {
				out = append(out, x)
			}
		}
	}
	return out
}

// svcLoad draws each client's job sequence from the seed and expands
// every job into its requests in-process.
func svcLoad(seed uint64, tiny bool) ([][]*svcJob, error) {
	r := rand.New(rand.NewPCG(seed, 0x5357_5046_5045_5246))
	jobs := svcJobsPerClient
	if tiny {
		jobs = 4
	}
	pool, err := workloads.PoolByQuality(svcQuality)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(pool))
	for i, w := range pool {
		names[i] = w.Name
	}
	load := make([][]*svcJob, svcClients)
	for c := range load {
		for j := 0; j < jobs; j++ {
			spec := sweep.Spec{
				Quality:   svcQuality,
				Workloads: strings.Join(pick(r, names, 4), ","),
				Systems:   strings.Join(pick(r, svcSystems, 2), ","),
				HWPF:      strings.Join(pick(r, svcHWPF, 2), ","),
				Variants:  strings.Join(pick(r, svcVariants, 2), ","),
				Core:      svcCores[r.IntN(len(svcCores))],
			}
			grid, err := spec.ToGrid()
			if err != nil {
				return nil, fmt.Errorf("job spec %+v: %w", spec, err)
			}
			load[c] = append(load[c], &svcJob{label: fmt.Sprintf("c%dj%d", c, j), spec: spec, reqs: grid.Expand()})
		}
	}
	return load, nil
}

// warmSpec builds the gen pool in coordinator and worker before timing
// starts; its cell is outside the load's axis space, so the store never
// answers a load cell from it.
var warmSpec = sweep.Spec{Quality: svcQuality, Workloads: "GEN-00", Systems: "A53", HWPF: "none", Variants: "indirect-only"}

// proc is a running swpfd process whose JSON log lines are kept.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed when stderr has been read to the end

	mu    sync.Mutex
	lines []map[string]any
	addr  chan string // the address of the first "listening" line
}

// startProc starts bin with args. The process is killed when this one
// dies, so a benchmark killed on a timeout leaves no daemon behind.
func startProc(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{}), addr: make(chan string, 1)}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var m map[string]any
			if json.Unmarshal(sc.Bytes(), &m) != nil {
				continue
			}
			p.mu.Lock()
			p.lines = append(p.lines, m)
			p.mu.Unlock()
			if addr, ok := m["addr"].(string); ok && m["msg"] == "listening" {
				select {
				case p.addr <- addr:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr) // never leave the process blocked on a full pipe
	}()
	return p, nil
}

// logLines returns the log lines from index from on.
func (p *proc) logLines(from int) []map[string]any {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]map[string]any(nil), p.lines[from:]...)
}

func (p *proc) numLines() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.lines)
}

// stop kills the process and waits for it and its log reader.
func (p *proc) stop() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
	<-p.done
}

// daemon is one coordinator plus one worker over a fresh store.
type daemon struct {
	url         string
	coordinator *proc
	worker      *proc
	storeDir    string
	client      *http.Client
}

// startDaemon starts the pair and returns once the worker has polled
// the coordinator and both have built the gen pool (warm-up).
func startDaemon(bin, tmp string) (*daemon, error) {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	// Enough idle connections for every client, so requests reuse them.
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * svcClients}
	d := &daemon{storeDir: dir, client: &http.Client{Transport: transport, Timeout: 120 * time.Second}}
	d.coordinator, err = startProc(bin, "-addr", "127.0.0.1:0", "-local-workers", "0", "-store", dir, "-log-format", "json")
	if err != nil {
		return nil, err
	}
	select {
	case addr := <-d.coordinator.addr:
		d.url = "http://" + addr
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("coordinator did not report its address")
	}
	d.worker, err = startProc(bin, "-worker", d.url, "-jobs", strconv.Itoa(svcWorkerJobs), "-log-format", "json")
	if err != nil {
		d.stop()
		return nil, err
	}
	for start := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		var st struct {
			Queue fleet.Stats `json:"queue"`
		}
		if err := d.getJSON("/fleet", &st); err == nil && len(st.Queue.Workers) > 0 {
			break
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, errors.New("worker did not reach the coordinator")
		}
	}
	if err := d.warm(); err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return d, nil
}

// warm submits warmSpec and waits until its job is done.
func (d *daemon) warm() error {
	ctx := context.Background()
	body, _ := json.Marshal(warmSpec)
	var sub struct{ ID string }
	if err := d.exchange(ctx, "POST", "/sweep", body, "warm-sweep", decodeJSON(&sub)); err != nil {
		return err
	}
	var state string
	if err := d.exchange(ctx, "GET", "/jobs/"+sub.ID+"/events", nil, "warm-events", readState(&state)); err != nil {
		return err
	}
	if state != "done" {
		return fmt.Errorf("job %s ended in state %q", sub.ID, state)
	}
	return nil
}

func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	if d.worker != nil {
		d.worker.stop()
	}
	if d.coordinator != nil {
		d.coordinator.stop()
	}
	os.RemoveAll(d.storeDir)
}

// peakRSSMB sums the peak resident sets of coordinator and worker.
func (d *daemon) peakRSSMB() (float64, error) {
	a, err := procPeakRSSMB(d.coordinator.cmd.Process.Pid)
	if err != nil {
		return 0, err
	}
	b, err := procPeakRSSMB(d.worker.cmd.Process.Pid)
	return a + b, err
}

func (d *daemon) getJSON(path string, out any) error {
	resp, err := d.client.Get(d.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// scrape reads the coordinator's /metrics into name{labels} → value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// exchange sends one request carrying the request ID rid, checks for
// a 2xx status and hands the body to read.
func (d *daemon) exchange(ctx context.Context, method, path string, body []byte, rid string, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(obs.RequestIDHeader, rid)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return read(resp.Body)
}

func decodeJSON(v any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(v) }
}

// readState follows a job's event stream until the job is terminal and
// stores its final state.
func readState(state *string) func(io.Reader) error {
	return func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev struct{ State string }
			if json.Unmarshal([]byte(data), &ev) == nil && ev.State != "running" {
				*state = ev.State
				return nil
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return errors.New("event stream ended before the job did")
	}
}

// runJob submits a job, waits on its event stream until it is
// terminal, and fetches its results, recording the turnaround and,
// with a span log, one span per request under one per job.
func (d *daemon) runJob(ctx context.Context, j *svcJob, log *spanLog) {
	js := log.begin("job", j.label, 0)
	defer log.end(js)
	step := func(name, method, path string, body []byte, read func(io.Reader) error) error {
		rid := j.label + "-" + name
		s := log.begin(method+" "+strings.SplitN(path, "?", 2)[0], rid, js.ID)
		defer log.end(s)
		return d.exchange(ctx, method, path, body, rid, read)
	}
	start := time.Now()
	body, _ := json.Marshal(j.spec)
	var sub struct {
		ID    string
		Cells int
	}
	if err := step("sweep", "POST", "/sweep", body, decodeJSON(&sub)); err != nil {
		j.err = err
		return
	}
	j.id = sub.ID
	var state string
	if err := step("events", "GET", "/jobs/"+sub.ID+"/events", nil, readState(&state)); err != nil {
		j.err = fmt.Errorf("job %s: %w", sub.ID, err)
		return
	}
	if state != "done" {
		j.err = fmt.Errorf("job %s ended in state %q", sub.ID, state)
		return
	}
	err := step("results", "GET", "/results?id="+sub.ID, nil, decodeJSON(&j.records))
	j.turnaround = time.Since(start).Seconds()
	if err != nil {
		j.err = err
		return
	}
	if len(j.records) != sub.Cells {
		j.err = fmt.Errorf("job %s: %d records for %d cells", sub.ID, len(j.records), sub.Cells)
		return
	}
	for _, r := range j.records {
		if r.Err != "" {
			j.err = fmt.Errorf("job %s: cell %s/%s/%s failed: %s", sub.ID, r.Workload, r.System, r.Variant, r.Err)
			return
		}
	}
}

// svcRound is one timed round of the load against a fresh daemon.
type svcRound struct {
	wall       float64
	cells      int    // cells answered
	digest     string // stats_sha256 of the fetched records
	before     map[string]float64
	after      map[string]float64
	rssMB      float64
	coordLines []map[string]any
	workerLogs []map[string]any
	spans      []span
}

// runRound drives the load's closed loop against d.
func runRound(d *daemon, load [][]*svcJob, traced bool) (*svcRound, error) {
	s := &svcRound{}
	var log *spanLog
	if traced {
		log = newSpanLog()
	}
	var err error
	if s.before, err = d.scrape(); err != nil {
		return nil, err
	}
	coordFrom, workerFrom := d.coordinator.numLines(), d.worker.numLines()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for _, jobs := range load {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range jobs {
				d.runJob(ctx, j, log)
			}
		}()
	}
	wg.Wait()
	s.wall = time.Since(start).Seconds()
	if s.after, err = d.scrape(); err != nil {
		return nil, err
	}
	if s.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	s.coordLines = d.coordinator.logLines(coordFrom)
	s.workerLogs = d.worker.logLines(workerFrom)
	if log != nil {
		s.spans = log.spans
	}
	return s, nil
}

// delta is a counter's growth over the round.
func (s *svcRound) delta(name string) float64 { return s.after[name] - s.before[name] }

// resetJobs clears the outcomes of a load, so it can run again.
func resetJobs(load [][]*svcJob) {
	for _, jobs := range load {
		for _, j := range jobs {
			j.id, j.turnaround, j.records, j.err = "", 0, nil, nil
		}
	}
}

// runService runs the service workload: the in-process reference run
// of the load's distinct cells, then rounds of the timed closed loop,
// each against a fresh daemon and store, checked against the
// reference. An untraced run repeats rounds for about opts.seconds; a
// traced run makes one untraced and one traced round.
func runService(opts options, rep *report) error {
	if opts.swpfd == "" {
		return errors.New("--swpfd is required")
	}
	rep.note("workload service seed %d", opts.seed)
	load, err := svcLoad(opts.seed, opts.tiny)
	if err != nil {
		return err
	}
	var builds []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		_ = workloads.SyntheticDefault()
		builds = append(builds, time.Since(t).Seconds())
	}
	rep.set("workloads.build_s", median(builds))
	ref := svcRef(load)
	rep.note("load: %d clients x %d jobs of 32 cells, %d distinct cells", len(load), len(load[0]), len(ref.reqs))

	tmp, err := os.MkdirTemp("", "swpfperf-service-") // run.sh points TMPDIR into the checkout
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// start starts a fresh daemon, timing its set-up.
	var setups []float64
	start := func() (*daemon, error) {
		t := time.Now()
		d, err := startDaemon(opts.swpfd, tmp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		return d, nil
	}
	for i := 0; i < svcExtraSetups; i++ {
		d, err := start()
		if err != nil {
			return err
		}
		d.stop()
	}
	// round runs the load once against a fresh daemon and checks it.
	var rounds []*svcRound
	var turnarounds []float64
	round := func(traced bool) (*svcRound, error) {
		resetJobs(load)
		d, err := start()
		if err != nil {
			return nil, err
		}
		s, err := runRound(d, load, traced)
		d.stop()
		if err != nil {
			return nil, err
		}
		checkRound(load, s, ref, rep)
		if len(rounds) > 0 && s.digest != rounds[0].digest {
			rep.fail("round %d stats_sha256 %s differs from round 1's %s", len(rounds)+1, s.digest, rounds[0].digest)
		}
		for _, jobs := range load {
			for _, j := range jobs {
				if j.err == nil {
					turnarounds = append(turnarounds, j.turnaround)
				}
			}
		}
		return s, nil
	}
	began := time.Now()
	for len(rounds) == 0 || (!opts.trace && time.Since(began).Seconds() < opts.seconds-rounds[len(rounds)-1].wall/2) {
		s, err := round(false)
		if err != nil {
			return err
		}
		rounds = append(rounds, s)
	}

	var walls, mips, rates, rss []float64
	for _, s := range rounds {
		walls = append(walls, s.wall)
		mips = append(mips, float64(ref.instructions)/s.wall/1e6)
		rates = append(rates, float64(s.cells)/s.wall)
		rss = append(rss, s.rssMB)
	}
	s := rounds[0]
	rep.note("stats_sha256 %s (fetched records, jobs in client order)", s.digest)
	rep.note("rounds: %d; walls %v s", len(rounds), walls)
	rep.note("cells per round: %d answered, %d distinct simulated, %.0f from the store, %.0f by a live duplicate",
		s.cells, len(ref.reqs), s.delta("swpf_queue_cache_hits_total"), s.delta("swpf_queue_dedup_hits_total"))
	rep.set("setup_s", median(setups))
	rep.note("setup: %d daemon starts, median %.4f s", len(setups), median(setups))
	rep.set("wall_s", median(walls))
	rep.set("sim_mips", median(mips))
	rep.set("cells_per_s", median(rates))
	rep.set("job_s_p50", median(turnarounds))
	tailV, pct := tail(turnarounds)
	rep.set("job_s_tail", tailV)
	rep.note("job_s_tail is p%.1f of %d jobs", pct, len(turnarounds))
	rep.set("peak_rss_mb", median(rss))
	hierarchyMetrics(ref.results, rep)
	cellTimes(rep, "the in-process reference run (sweep.Runner.Metrics)", ref.m.DirectSeconds, ref.m.RecordSeconds, ref.m.ReplaySeconds)

	if !opts.trace {
		return nil
	}
	ts, err := round(true)
	if err != nil {
		return err
	}
	rep.note("untraced wall %.3f s, traced wall %.3f s", s.wall, ts.wall)
	rep.set("bench.trace_overhead_s", ts.wall-s.wall)
	rep.set("bench.trace_overhead_frac", ratio(ts.wall-s.wall, s.wall))
	serviceLayerMetrics(ts, rep)

	// The in-process layers, on the service's distinct cells.
	tp := tracedPass(ref.reqs, rep)
	if d := digest(ref.reqs, tp.results); d != ref.digest {
		rep.fail("traced in-process run of the distinct cells: stats_sha256 %s, untraced %s", d, ref.digest)
	}
	tp.layerMetrics(ref.reqs, rep)
	return writeSpans(opts, append(ts.spans, tp.spans...))
}

// svcReference is the untimed in-process sweep.Runner run of a load's
// distinct cells.
type svcReference struct {
	reqs         []sweep.Request
	index        map[string]int // fleet key → position in reqs
	results      []*core.Result
	records      []sweep.Record
	digest       string
	instructions uint64
	m            *sweep.Metrics
}

func svcRef(load [][]*svcJob) *svcReference {
	ref := &svcReference{index: make(map[string]int), m: newSweepMetrics()}
	for _, js := range load {
		for _, j := range js {
			for _, r := range j.reqs {
				k := fleet.KeyOf(r)
				if _, ok := ref.index[k]; !ok {
					ref.index[k] = len(ref.reqs)
					ref.reqs = append(ref.reqs, r)
				}
			}
		}
	}
	set, _ := sweep.Runner{Jobs: simJobs, Metrics: ref.m}.Execute(ref.reqs) // cell errors surface as mismatched records
	ref.results = set.Results()
	ref.records = set.Records()
	ref.digest = digest(ref.reqs, ref.results)
	ref.instructions = instructions(ref.results)
	return ref
}

// checkRound counts a round's failed jobs, checks every fetched record
// against the reference run, checks that the fleet simulated each
// distinct cell exactly once, and digests the fetched records.
func checkRound(load [][]*svcJob, s *svcRound, ref *svcReference, rep *report) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	jobs, failed, mismatched := 0, 0, 0
	for _, js := range load {
		for _, j := range js {
			jobs++
			if j.err != nil {
				failed++
				if failed <= 3 {
					rep.fail("job %s (%s): %v", j.label, j.id, j.err)
				}
				continue
			}
			s.cells += len(j.records)
			for i, got := range j.records {
				if err := enc.Encode(got); err != nil {
					panic(err) // plain data; unreachable
				}
				if want := ref.records[ref.index[fleet.KeyOf(j.reqs[i])]]; got != want || want.Err != "" {
					mismatched++
					if mismatched <= 3 {
						rep.fail("job %s cell %d: fetched %+v, in-process %+v", j.label, i, got, want)
					}
				}
			}
		}
	}
	rep.count(jobs, failed)
	if mismatched > 0 {
		rep.fail("%d fetched cells differ from the in-process run", mismatched)
	}
	if fresh := s.delta("swpf_queue_completed_total"); int(fresh) != len(ref.reqs) {
		rep.fail("fleet simulated %.0f cells for %d distinct cells", fresh, len(ref.reqs))
	}
	s.digest = hex.EncodeToString(h.Sum(nil))
}

// serviceLayerMetrics reports the store, fleet and HTTP layers of a
// traced round from /metrics and the processes' JSON logs.
func serviceLayerMetrics(s *svcRound, rep *report) {
	// The coordinator probes the store twice for a new cell (before and
	// under the queue lock), so hit_frac is taken over submitted cells,
	// not over probes.
	hits := s.delta("swpf_store_hits_total")
	rep.set("store.hits", hits)
	rep.set("store.puts", s.delta("swpf_store_puts_total"))
	rep.set("store.hit_frac", ratio(hits, s.delta("swpf_queue_cells_total")))
	rep.set("fleet.fresh_cells", s.delta("swpf_queue_completed_total"))
	rep.set("fleet.dedup_hits", s.delta("swpf_queue_dedup_hits_total"))
	rep.set("fleet.cache_hits", s.delta("swpf_queue_cache_hits_total"))
	rep.set("fleet.requeued", s.delta("swpf_queue_requeued_total"))

	// Worker: a "lease" line opens each batch and a "complete" line
	// closes it under the same request ID; "execute" carries the time
	// spent simulating.
	leased := make(map[string]time.Time)
	leaseCells := make(map[string]int)
	var leases, cells int
	var busy, inLease float64
	var cellS []float64
	for _, m := range s.workerLogs {
		rid, _ := m["rid"].(string)
		at, _ := time.Parse(time.RFC3339Nano, fmt.Sprint(m["time"]))
		switch m["msg"] {
		case "lease":
			n, _ := m["cells"].(float64)
			leases++
			cells += int(n)
			leased[rid] = at
			leaseCells[rid] = int(n)
		case "execute":
			if d, err := time.ParseDuration(fmt.Sprint(m["dur"])); err == nil {
				busy += d.Seconds()
			}
		case "complete":
			if t0, ok := leased[rid]; ok {
				inLease += at.Sub(t0).Seconds()
				for i := 0; i < leaseCells[rid]; i++ {
					cellS = append(cellS, at.Sub(t0).Seconds())
				}
			}
		}
	}
	rep.set("fleet.leases", float64(leases))
	rep.set("fleet.cells_per_lease", ratio(float64(cells), float64(leases)))
	rep.set("fleet.cell_s_p50", median(cellS))
	rep.set("fleet.worker_busy_frac", ratio(busy, s.wall))

	// Coordinator: one access-log line per request.
	byRoute := make(map[string][]float64)
	for _, m := range s.coordLines {
		if m["msg"] != "http" {
			continue
		}
		if d, err := time.ParseDuration(fmt.Sprint(m["dur"])); err == nil {
			route := fmt.Sprint(m["route"])
			byRoute[route] = append(byRoute[route], d.Seconds())
		}
	}
	for _, r := range httpRoutes {
		rep.set("http."+r.metric+".s_p50", median(byRoute[r.route]))
		rep.note("http %-22s %5d requests, p50 %.6f s, sum %.3f s", r.route, len(byRoute[r.route]), median(byRoute[r.route]), sum(byRoute[r.route]))
	}

	// Where the worker's round goes: simulating, the rest of each lease
	// (rebuilding the cells, reporting them on /fleet/complete, which
	// stores them), and between leases (lease requests and idle polls
	// while the clients submit, wait on events and fetch results).
	rep.note("worker over the round's %.3f s: execute %.3f s (%.0f %%), rest of each lease %.3f s (%.0f %%), between leases %.3f s (%.0f %%)",
		s.wall, busy, 100*ratio(busy, s.wall), inLease-busy, 100*ratio(inLease-busy, s.wall),
		s.wall-inLease, 100*ratio(s.wall-inLease, s.wall))
}
