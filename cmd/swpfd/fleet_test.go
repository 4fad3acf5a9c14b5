package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
)

// coordinatorOnly builds a server with no in-process workers: cells
// stay pending until a (test-driven) fleet worker pulls them.
func coordinatorOnly(t *testing.T, cfg config) *httptest.Server {
	t.Helper()
	cfg.localWorkers = -1
	if cfg.stderr == nil {
		cfg.stderr = &bytes.Buffer{}
	}
	ts := httptest.NewServer(newServerCfg(cfg))
	t.Cleanup(ts.Close)
	return ts
}

// errorBody decodes the daemon's JSON error envelope.
func errorBody(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("non-JSON error body %q: %v", body, err)
	}
	return e.Error
}

// post POSTs a JSON body and returns status code and body.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestBatchSubmit: POST /sweep with a JSON array admits every spec as
// its own job and mirrors the list shape in the reply; each job's
// results match a direct run of its grid.
func TestBatchSubmit(t *testing.T) {
	ts := httptest.NewServer(newServer(2, nil))
	defer ts.Close()

	code, body := post(t, ts, "/sweep", `[
		{"workloads":"IS","systems":"A53","variants":"plain,auto","quality":"tiny"},
		{"workloads":"CG","systems":"A53","variants":"plain","quality":"tiny","priority":5}
	]`)
	if code != http.StatusAccepted {
		t.Fatalf("batch POST /sweep = %d: %s", code, body)
	}
	var replies []SubmitReply
	if err := json.Unmarshal(body, &replies); err != nil {
		t.Fatalf("batch reply not a list: %s", body)
	}
	if len(replies) != 2 || replies[0].Cells != 2 || replies[1].Cells != 1 {
		t.Fatalf("batch replies wrong: %+v", replies)
	}

	for i, spec := range []string{
		`{"workloads":"IS","systems":"A53","variants":"plain,auto","quality":"tiny"}`,
		`{"workloads":"CG","systems":"A53","variants":"plain","quality":"tiny"}`,
	} {
		final := poll(t, ts, replies[i].ID)
		if final.State != stateDone {
			t.Fatalf("batch job %s failed: %+v", replies[i].ID, final)
		}
		var sp SweepSpec
		if err := json.Unmarshal([]byte(spec), &sp); err != nil {
			t.Fatal(err)
		}
		grid, err := sp.ToGrid()
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sweep.Runner{Jobs: 2}.Execute(grid.Expand())
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := direct.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if code, got := fetch(t, ts, "/results?id="+replies[i].ID); code != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("batch job %s results differ from direct run (code %d)", replies[i].ID, code)
		}
	}

	// An empty list is a 400, not zero silently-accepted jobs.
	if code, body := post(t, ts, "/sweep", `[]`); code != http.StatusBadRequest {
		t.Errorf("empty batch = %d: %s", code, body)
	}
}

// TestQueueFull429 pins the backpressure contract: a submission whose
// new cells would exceed -max-pending is rejected whole with 429 and a
// Retry-After header, nothing is enqueued, and a duplicate of an
// already-live cell is NOT new work and still admits.
func TestQueueFull429(t *testing.T) {
	ts := coordinatorOnly(t, config{maxPending: 2})

	one := `{"workloads":"IS","systems":"A53","variants":"plain","quality":"tiny"}`
	for _, spec := range []string{one, `{"workloads":"CG","systems":"A53","variants":"plain","quality":"tiny"}`} {
		if code, body := post(t, ts, "/sweep", spec); code != http.StatusAccepted {
			t.Fatalf("submit filling the queue = %d: %s", code, body)
		}
	}

	// A distinct cell exceeds the 2-cell bound.
	resp, err := http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"workloads":"RA","systems":"A53","variants":"plain","quality":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429: %s", resp.StatusCode, buf.Bytes())
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if msg := errorBody(t, buf.Bytes()); !strings.HasPrefix(msg, "queue full: ") {
		t.Errorf("429 body = %q, want queue full error", msg)
	}

	// The same grid again dedupes onto the live cell: no new cells, so
	// it admits despite the full queue.
	if code, body := post(t, ts, "/sweep", one); code != http.StatusAccepted {
		t.Errorf("duplicate submit = %d, want 202 (dedupe adds no cells): %s", code, body)
	}

	// Batch overflow: the reply reports what was admitted before the
	// full spec.
	code, body := post(t, ts, "/sweep", `[
		{"workloads":"IS","systems":"A53","variants":"plain","quality":"tiny"},
		{"workloads":"RA","systems":"A53","variants":"plain","quality":"tiny"}
	]`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("batch overflow = %d: %s", code, body)
	}
	var partial struct {
		Error     string        `json:"error"`
		Submitted []SubmitReply `json:"submitted"`
	}
	if err := json.Unmarshal(body, &partial); err != nil {
		t.Fatal(err)
	}
	if len(partial.Submitted) != 1 || !strings.HasPrefix(partial.Error, "queue full: ") {
		t.Errorf("batch overflow body wrong: %+v", partial)
	}
}

// TestSweepCellBound: POST /sweep refuses, before expanding anything, a
// body whose specs total more cells than the queue's live-cell bound —
// one spec, a batch, or axis lengths whose product overflows an int64
// — and enqueues nothing; a body at the bound is admitted.
func TestSweepCellBound(t *testing.T) {
	ts := coordinatorOnly(t, config{maxPending: 4})
	rep := func(tok string, n int) string { return strings.TrimSuffix(strings.Repeat(tok+",", n), ",") }
	for name, body := range map[string]string{
		"spec":  `{"workloads":"IS,CG,RA","systems":"A53","variants":"plain,auto","quality":"tiny"}`,
		"batch": `[{"workloads":"IS","systems":"A53","variants":"plain,auto","quality":"tiny"},{"workloads":"CG,RA","systems":"A53","variants":"plain,auto","quality":"tiny"}]`,
		"repeated": `{"quality":"tiny","systems":"` + rep("A53", 5000) + `","variants":"` + rep("plain", 5000) +
			`","hwpf":"` + rep("none", 5000) + `","core":"` + rep("ooo", 5000) + `","exec":"` + rep("direct", 5000) + `"}`,
	} {
		code, reply := post(t, ts, "/sweep", body)
		if msg := errorBody(t, reply); code != http.StatusBadRequest || !strings.Contains(msg, "queue's bound of 4 live cells") {
			t.Errorf("%s: POST /sweep = %d %q, want 400 naming the bound", name, code, msg)
		}
	}
	var fs FleetStatus
	_, reply := fetch(t, ts, "/fleet")
	if err := json.Unmarshal(reply, &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Queue.Submissions != 0 || fs.Queue.Pending != 0 {
		t.Errorf("refused bodies reached the queue: %+v", fs.Queue)
	}
	if code, reply := post(t, ts, "/sweep", `{"workloads":"IS,CG","systems":"A53","variants":"plain,auto","quality":"tiny"}`); code != http.StatusAccepted {
		t.Errorf("a body of exactly the bound = %d: %s", code, reply)
	}
}

// TestErrorContracts pins exact status codes and error bodies for the
// daemon's failure paths, in the ParseVariants error-contract style.
func TestErrorContracts(t *testing.T) {
	ts := httptest.NewServer(newServer(1, nil))
	defer ts.Close()

	cases := []struct {
		method, path, body string
		wantCode           int
		wantErr            string // exact, or prefix when ending in "*"
	}{
		{"POST", "/sweep", `not json`, 400, "decoding spec: *"},
		{"POST", "/sweep", `{"quality":"huge"}`, 400, `unknown quality "huge" (have full, quick, tiny, gen)`},
		{"POST", "/sweep", `{"variants":"jit","quality":"tiny"}`, 400, `sweep: unknown variant "jit" (have plain, auto, manual, icc, indirect-only)`},
		{"POST", "/sweep", `{"hwpf":"warp-drive","quality":"tiny"}`, 400, `sweep: unknown hardware prefetcher "warp-drive" (have default, none, stride, nextline, ghb, imp)`},
		{"POST", "/sweep", `{"exec":"jit","quality":"tiny"}`, 400, `sweep: unknown exec mode "jit" (have direct, replay)`},
		{"GET", "/jobs/job-99", "", 404, `unknown job "job-99"`},
		{"GET", "/jobs/job-99/events", "", 404, `unknown job "job-99"`},
		{"GET", "/results?id=job-99", "", 404, `unknown job "job-99"`},
		{"POST", "/fleet/lease", `{}`, 400, "lease request missing worker name"},
		{"POST", "/fleet/lease", `nope`, 400, "decoding lease request: *"},
		{"POST", "/fleet/complete", `nope`, 400, "decoding completion: *"},
		{"POST", "/fleet/heartbeat", `nope`, 400, "decoding heartbeat: *"},
	}
	for _, tc := range cases {
		var code int
		var body []byte
		switch tc.method {
		case "POST":
			code, body = post(t, ts, tc.path, tc.body)
		default:
			code, body = fetch(t, ts, tc.path)
		}
		if code != tc.wantCode {
			t.Errorf("%s %s = %d, want %d (%s)", tc.method, tc.path, code, tc.wantCode, body)
			continue
		}
		got := errorBody(t, body)
		if want, isPrefix := strings.CutSuffix(tc.wantErr, "*"); isPrefix {
			if !strings.HasPrefix(got, want) {
				t.Errorf("%s %s error = %q, want prefix %q", tc.method, tc.path, got, want)
			}
		} else if got != tc.wantErr {
			t.Errorf("%s %s error = %q, want %q", tc.method, tc.path, got, tc.wantErr)
		}
	}

	// format= on a finished job: exact 400 body.
	id, _ := submit(t, ts, `{"workloads":"IS","systems":"A53","variants":"plain","quality":"tiny"}`)
	poll(t, ts, id)
	code, body := fetch(t, ts, "/results?id="+id+"&format=xml")
	if code != http.StatusBadRequest {
		t.Fatalf("bad format = %d", code)
	}
	if got, want := errorBody(t, body), `unknown format "xml" (have json, csv)`; got != want {
		t.Errorf("bad format error = %q, want %q", got, want)
	}
}

// TestResultsConflictWhileRunning: /results on an unfinished job is a
// 409 that reports progress. Driven on a coordinator-only server so
// the job deterministically never finishes.
func TestResultsConflictWhileRunning(t *testing.T) {
	ts := coordinatorOnly(t, config{})
	id, _ := submit(t, ts, `{"workloads":"IS","systems":"A53","variants":"plain","quality":"tiny"}`)
	code, body := fetch(t, ts, "/results?id="+id)
	if code != http.StatusConflict {
		t.Fatalf("running results = %d, want 409: %s", code, body)
	}
	if got, want := errorBody(t, body), fmt.Sprintf("job %s not finished (0/1 cells)", id); got != want {
		t.Errorf("409 body = %q, want %q", got, want)
	}
}

// TestEventsStream: GET /jobs/{id}/events is an SSE stream whose
// terminal event carries the final state and counts, after which the
// stream closes. A subscriber joining a finished job sees exactly the
// terminal event.
func TestEventsStream(t *testing.T) {
	ts := httptest.NewServer(newServer(2, nil))
	defer ts.Close()

	id, cells := submit(t, ts, tinySpec)
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	last := events[len(events)-1]
	if last.State != stateDone || last.Done != cells || last.Total != cells {
		t.Fatalf("terminal event wrong: %+v", last)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Done < events[i-1].Done {
			t.Errorf("event counts not monotonic: %+v", events)
		}
	}

	// Late subscriber: one terminal event, stream closes.
	resp2, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	late, err := bufio.NewReader(resp2.Body).ReadString('\n')
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(late), "data: ")), &ev); err != nil {
		t.Fatalf("late event %q: %v", late, err)
	}
	if ev.State != stateDone || ev.Done != cells {
		t.Errorf("late subscriber event wrong: %+v", ev)
	}
}

// TestFleetWorkerLoop drives the real worker-mode code (fleetWorker)
// against a coordinator-only daemon over HTTP: lease, reconstruct from
// wire specs, execute, complete — and the job's results must be
// byte-identical to a direct run. This is the in-process twin of the
// internal/e2e real-binary test.
func TestFleetWorkerLoop(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := coordinatorOnly(t, config{store: st, leaseBatch: 3})

	id, cells := submit(t, ts, tinySpec)

	// One manual worker pass: drain the queue through the HTTP fleet
	// API using the same code `swpfd -worker` runs.
	w := remoteWorker(ts.URL, "test-worker", 2, 3, obs.Discard())
	// Lease until every cell is out: a lease request on an empty queue
	// would wait out the coordinator's bound before its 204. serve
	// returns once every report has.
	leased := 0
	w.serve(func() (*fleet.Lease, string) {
		if leased == cells {
			return nil, ""
		}
		l, rid := w.lease(context.Background())
		if l == nil {
			t.Errorf("lease answered 204 with %d of %d cells leased", leased, cells)
			return nil, ""
		}
		leased += len(l.Cells)
		return l, rid
	})

	final := poll(t, ts, id)
	if final.State != stateDone || final.Done != cells {
		t.Fatalf("job after worker drain: %+v", final)
	}

	var spec SweepSpec
	if err := json.Unmarshal([]byte(tinySpec), &spec); err != nil {
		t.Fatal(err)
	}
	grid, err := spec.ToGrid()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sweep.Runner{Jobs: 2}.Execute(grid.Expand())
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON, wantCSV bytes.Buffer
	if err := direct.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := direct.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if _, got := fetch(t, ts, "/results?id="+id); !bytes.Equal(got, wantJSON.Bytes()) {
		t.Errorf("fleet-worker JSON differs from direct run:\n%s\nvs\n%s", got, wantJSON.Bytes())
	}
	if _, got := fetch(t, ts, "/results?id="+id+"&format=csv"); !bytes.Equal(got, wantCSV.Bytes()) {
		t.Errorf("fleet-worker CSV differs from direct run:\n%s\nvs\n%s", got, wantCSV.Bytes())
	}

	// The coordinator persisted exactly one object per distinct cell,
	// and /fleet accounts for the worker.
	if stats := st.Stats(); stats.Puts != int64(cells) {
		t.Errorf("store saw %d puts for %d cells", stats.Puts, cells)
	}
	code, body := fetch(t, ts, "/fleet")
	if code != http.StatusOK {
		t.Fatalf("GET /fleet = %d", code)
	}
	var fs FleetStatus
	if err := json.Unmarshal(body, &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Queue.Completed != int64(cells) || fs.Queue.Pending != 0 || fs.Queue.Leases != 0 {
		t.Errorf("fleet stats wrong: %+v", fs.Queue)
	}
	found := false
	for _, wi := range fs.Queue.Workers {
		if wi.Name == "test-worker" {
			found = true
		}
	}
	if !found {
		t.Errorf("worker missing from /fleet workers: %+v", fs.Queue.Workers)
	}
	if fs.Store == nil || fs.Store.Puts != int64(cells) {
		t.Errorf("/fleet store stats wrong: %+v", fs.Store)
	}
}

// TestLeaseExpiryOverHTTP: a worker that leases cells and vanishes
// (never completes, never heartbeats) loses the lease after the TTL;
// the cells requeue and a second worker finishes the job — the
// HTTP-level twin of the e2e worker-kill test. The second worker's
// lease request, sent while the cells are held, waits at the
// coordinator and is answered with the requeued cells once the TTL has
// passed.
func TestLeaseExpiryOverHTTP(t *testing.T) {
	const ttl = 50 * time.Millisecond
	ts := coordinatorOnly(t, config{leaseTTL: ttl})

	id, cells := submit(t, ts, `{"workloads":"IS","systems":"A53","variants":"plain,auto","quality":"tiny"}`)

	// The doomed worker takes everything and dies. Its TTL runs from
	// the grant, which is no earlier than granted.
	granted := time.Now()
	code, body := post(t, ts, "/fleet/lease", `{"worker":"doomed","max":99}`)
	if code != http.StatusOK {
		t.Fatalf("lease = %d: %s", code, body)
	}
	var l fleet.Lease
	if err := json.Unmarshal(body, &l); err != nil {
		t.Fatal(err)
	}
	if len(l.Cells) != cells {
		t.Fatalf("doomed worker leased %d cells, want %d", len(l.Cells), cells)
	}

	w := remoteWorker(ts.URL, "w2", 1, 99, obs.Discard())
	l2, rid := w.lease(context.Background())
	if waited := time.Since(granted); waited < ttl {
		t.Errorf("second lease answered %v after the doomed grant, before the %v TTL", waited, ttl)
	}
	if l2 == nil || len(l2.Cells) != cells {
		t.Fatalf("requeued lease wrong: %+v", l2)
	}
	w.serve(once(l2, rid))
	if final := poll(t, ts, id); final.State != stateDone || final.Done != cells {
		t.Fatalf("job after requeue: %+v", final)
	}

	var fs FleetStatus
	_, body = fetch(t, ts, "/fleet")
	if err := json.Unmarshal(body, &fs); err != nil {
		t.Fatal(err)
	}
	// At least the doomed worker's cells were requeued (the second
	// worker's lease may also expire under a slow scheduler — its late
	// completion is still accepted, so the job finishes either way).
	if fs.Queue.Requeued < int64(cells) {
		t.Errorf("requeued = %d, want >= %d", fs.Queue.Requeued, cells)
	}
}

// waitInflight polls GET /metrics until swpf_http_inflight_requests
// reads want; the scrape itself counts as one.
func waitInflight(t *testing.T, ts *httptest.Server, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := fetch(t, ts, "/metrics")
		samples, err := obs.ParseText(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		s := obs.Find(samples, "swpf_http_inflight_requests")
		if s != nil && s.Value == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight requests = %+v, want %v", s, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLeaseWaitsForWork: a lease request parked on an idle coordinator
// is answered with cells right after a submission, well inside the
// 200 ms an idle worker used to sleep between polls.
func TestLeaseWaitsForWork(t *testing.T) {
	ts := coordinatorOnly(t, config{})
	type reply struct {
		code int
		body []byte
		at   time.Time
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/fleet/lease", "application/json", strings.NewReader(`{"worker":"idle","max":99}`))
		if err != nil {
			got <- reply{}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		got <- reply{resp.StatusCode, buf.Bytes(), time.Now()}
	}()
	waitInflight(t, ts, 2) // the parked lease request and the scrape

	id, cells := submit(t, ts, `{"workloads":"IS","systems":"A53","variants":"plain,auto","quality":"tiny"}`)
	submitted := time.Now()
	var r reply
	select {
	case r = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("parked lease request not answered after a submission")
	}
	if r.code != http.StatusOK {
		t.Fatalf("parked lease = %d: %s", r.code, r.body)
	}
	if late := r.at.Sub(submitted); late > 150*time.Millisecond {
		t.Errorf("parked lease answered %v after the submission returned", late)
	}
	var l fleet.Lease
	if err := json.Unmarshal(r.body, &l); err != nil {
		t.Fatal(err)
	}
	if len(l.Cells) != cells {
		t.Fatalf("parked lease carried %d cells of job %s, want %d", len(l.Cells), id, cells)
	}
}

// TestLeaseClientGivesUp: a lease request whose client goes away stops
// waiting, releasing its handler long before the coordinator's bound.
func TestLeaseClientGivesUp(t *testing.T) {
	ts := coordinatorOnly(t, config{})
	client := &http.Client{Timeout: 50 * time.Millisecond}
	resp, err := client.Post(ts.URL+"/fleet/lease", "application/json", strings.NewReader(`{"worker":"impatient"}`))
	if err == nil {
		resp.Body.Close()
		t.Fatalf("lease on an idle coordinator answered %d inside 50 ms", resp.StatusCode)
	}
	waitInflight(t, ts, 1) // only the scrape
}
