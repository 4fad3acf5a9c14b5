package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/tune"
)

// tinyTuneSpec is the search the tune end-to-end tests submit: one
// workload, one system, the default ladder on the tiny pool.
var tinyTuneSpec = `{"workloads":"IS","systems":"A53","quality":"tiny"}`

// submitTune POSTs a tune spec and returns the job id.
func submitTune(t *testing.T, ts *httptest.Server, spec string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/tune", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /tune = %d", resp.StatusCode)
	}
	var out TuneReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

// TestTuneEndToEnd drives a tune job through the full protocol, cold
// and warm: submit, poll to completion, and require the report — JSON
// and CSV — to be byte-identical to a direct tune.Tuner run of the
// same spec (what `swpfbench -tune` emits). The warm pass reopens the
// same store in a fresh daemon and must complete without a single new
// simulation.
func TestTuneEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(2, st))
	defer ts.Close()

	// Reference: the same spec run directly through the tuner.
	var tsp TuneSpec
	if err := json.Unmarshal([]byte(tinyTuneSpec), &tsp); err != nil {
		t.Fatal(err)
	}
	rep, err := tune.Tuner{Runner: sweep.Runner{Jobs: 2}}.Run(tsp)
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON, wantCSV bytes.Buffer
	if err := rep.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}

	id := submitTune(t, ts, tinyTuneSpec)
	final := poll(t, ts, id)
	if final.State != stateDone {
		t.Fatalf("job %s state = %q (%s)", id, final.State, final.Error)
	}
	if final.Tune == nil {
		t.Fatalf("job %s status has no tune spec: %+v", id, final)
	}
	if got := final.Tune.Workloads; got != "IS" {
		t.Fatalf("status tune.workloads = %q, want IS", got)
	}
	if final.Done == 0 || final.Done != final.Total {
		t.Fatalf("job %s progress = %d/%d, want full", id, final.Done, final.Total)
	}

	code, body := fetch(t, ts, "/results?id="+id)
	if code != http.StatusOK {
		t.Fatalf("GET /results = %d: %s", code, body)
	}
	if !bytes.Equal(body, wantJSON.Bytes()) {
		t.Errorf("daemon JSON report differs from direct tuner:\n%s\nwant:\n%s", body, wantJSON.Bytes())
	}
	code, body = fetch(t, ts, "/results?id="+id+"&format=csv")
	if code != http.StatusOK {
		t.Fatalf("GET /results format=csv = %d: %s", code, body)
	}
	if !bytes.Equal(body, wantCSV.Bytes()) {
		t.Errorf("daemon CSV report differs from direct tuner:\n%s\nwant:\n%s", body, wantCSV.Bytes())
	}

	// Warm pass: a fresh daemon over the same store must reproduce the
	// report byte for byte without simulating anything.
	ts.Close()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(newServer(2, st2))
	defer ts2.Close()

	before := interp.Runs()
	id2 := submitTune(t, ts2, tinyTuneSpec)
	if final := poll(t, ts2, id2); final.State != stateDone {
		t.Fatalf("warm job %s state = %q (%s)", id2, final.State, final.Error)
	}
	if runs := interp.Runs() - before; runs != 0 {
		t.Errorf("warm tune ran %d fresh simulations, want 0", runs)
	}
	code, body = fetch(t, ts2, "/results?id="+id2)
	if code != http.StatusOK {
		t.Fatalf("warm GET /results = %d: %s", code, body)
	}
	if !bytes.Equal(body, wantJSON.Bytes()) {
		t.Errorf("warm report differs from cold:\n%s", body)
	}
}

// TestTuneEvents follows a tune job's SSE stream to its terminal
// event — the same event shape and termination contract as sweeps.
func TestTuneEvents(t *testing.T) {
	ts := httptest.NewServer(newServer(2, nil))
	defer ts.Close()

	id := submitTune(t, ts, tinyTuneSpec)
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var last Event
	seen := false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		seen = true
		if last.State != stateRunning {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatal("no events received")
	}
	if last.State != stateDone {
		t.Fatalf("terminal event state = %q, want %q", last.State, stateDone)
	}
	if last.Done == 0 || last.Done != last.Total {
		t.Fatalf("terminal event progress = %d/%d, want full", last.Done, last.Total)
	}
}

// TestTuneBadRequests pins the /tune error contract: malformed JSON,
// local-only gen fields, fixed tuned axes, and unknown selectors are
// all 400s with the tuner's own messages.
func TestTuneBadRequests(t *testing.T) {
	ts := httptest.NewServer(newServer(1, nil))
	defer ts.Close()

	cases := []struct {
		name, spec, want string
	}{
		{"malformed", `{`, "decoding spec:"},
		{"gen", `{"gen":3,"quality":"tiny"}`, errGenWire},
		{"fixed c", `{"c":64,"quality":"tiny"}`, `tune: "c", "depth" and "hoist" are searched, not fixed`},
		{"exec", `{"exec":"replay","quality":"tiny"}`, `tune: "exec" is not a tuned axis`},
		{"core", `{"core":"ooo","quality":"tiny"}`, `tune: "core" is not a tuned axis`},
		{"two variants", `{"variants":"auto,manual","quality":"tiny"}`, "tune: exactly one variant is tuned at a time"},
		{"plain", `{"variants":"plain","quality":"tiny"}`, `tune: variant "plain" is the baseline`},
		{"strategy", `{"strategy":"anneal","quality":"tiny"}`, `tune: unknown strategy "anneal" (have exhaustive, hillclimb)`},
		{"ladder", `{"cs":"64,x","quality":"tiny"}`, `tune: bad look-ahead "x"`},
	}
	for _, tc := range cases {
		code, body := post(t, ts, "/tune", tc.spec)
		if code != http.StatusBadRequest {
			t.Errorf("%s: POST /tune = %d, want 400", tc.name, code)
			continue
		}
		if msg := errorBody(t, body); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: error = %q, want substring %q", tc.name, msg, tc.want)
		}
	}
}

// TestTuneBatchBound: a search whose largest evaluation batch exceeds
// the queue's live-cell bound is a 400 at submission, including ladders
// whose candidate count overflows an int64, and starts no job.
func TestTuneBatchBound(t *testing.T) {
	ts := coordinatorOnly(t, config{maxPending: 8})
	ladder := make([]string, 10000)
	for i := range ladder {
		ladder[i] = strconv.Itoa(i + 1)
	}
	for name, spec := range map[string]string{
		"exhaustive": `{"quality":"tiny","workloads":"IS","systems":"A53","cs":"1,2,4,8,16,32,64,128"}`,
		"hillclimb":  `{"quality":"tiny","workloads":"IS","systems":"A53","cs":"1,2,4,8,16,32,64,128,256","strategy":"hillclimb"}`,
		"huge":       `{"quality":"tiny","cs":"` + strings.Join(ladder, ",") + `","depths":"` + strings.Join(ladder, ",") + `"}`,
	} {
		code, body := post(t, ts, "/tune", spec)
		if msg := errorBody(t, body); code != http.StatusBadRequest || !strings.Contains(msg, "queue's bound of 8 live cells") {
			t.Errorf("%s: POST /tune = %d %q, want 400 naming the bound", name, code, msg)
		}
	}
	// Within the bound: exhaustive's 7 candidates and one baseline.
	if code, body := post(t, ts, "/tune", `{"quality":"tiny","workloads":"IS","systems":"A53","cs":"1,2,4,8,16,32,64"}`); code != http.StatusAccepted {
		t.Fatalf("in-bound tune = %d: %s", code, body)
	}
	var jobs []JobStatus
	_, body := fetch(t, ts, "/jobs")
	if err := json.Unmarshal(body, &jobs); err != nil || len(jobs) != 1 {
		t.Fatalf("jobs after the refusals = %s (%v), want only the in-bound one", body, err)
	}
}

// TestMetaTune checks GET /meta advertises the tuner's searchable axis
// bounds: strategies, tunable variants, and the default ladders.
func TestMetaTune(t *testing.T) {
	ts := httptest.NewServer(newServer(1, nil))
	defer ts.Close()

	code, body := fetch(t, ts, "/meta?quality=tiny")
	if code != http.StatusOK {
		t.Fatalf("GET /meta = %d", code)
	}
	var m Meta
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if want := []string{"exhaustive", "hillclimb"}; !equalStrings(m.Tune.Strategies, want) {
		t.Errorf("tune.strategies = %v, want %v", m.Tune.Strategies, want)
	}
	if len(m.Tune.Cs) != len(tune.DefaultCs) || m.Tune.Cs[0] != 1 || m.Tune.Cs[len(m.Tune.Cs)-1] != 1024 {
		t.Errorf("tune.cs = %v, want default ladder %v", m.Tune.Cs, tune.DefaultCs)
	}
	if len(m.Tune.Depths) == 0 || len(m.Tune.Hoists) == 0 {
		t.Errorf("tune depth/hoist bounds missing: %+v", m.Tune)
	}
	if len(m.Tune.Variants) == 0 {
		t.Fatal("tune.variants empty")
	}
	for _, v := range m.Tune.Variants {
		if v == "plain" {
			t.Error("tune.variants includes the plain baseline")
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
