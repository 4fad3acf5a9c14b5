package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// followEvents reads a job's event stream until the daemon closes it,
// handing each event to each.
func followEvents(ts *httptest.Server, id string, each func(Event)) error {
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return err
		}
		each(ev)
	}
	return sc.Err()
}

// monotonic reports whether no event lowers done or total.
func monotonic(events []Event) bool {
	for i := 1; i < len(events); i++ {
		if events[i].Done < events[i-1].Done || events[i].Total < events[i-1].Total {
			return false
		}
	}
	return true
}

// TestEventsManyReaders: eight GET /jobs/{id}/events readers of one
// running job, all waiting on its change channel, each follow its
// progress and end on the terminal event. The coordinator has no
// worker until every reader has seen the job running; a worker then
// completes the job one cell per lease.
func TestEventsManyReaders(t *testing.T) {
	ts := coordinatorOnly(t, config{})
	defer ts.CloseClientConnections() // so Close need not wait for a stuck reader
	id, cells := submit(t, ts, tinySpec)

	const readers = 8
	type stream struct {
		events []Event
		err    error
	}
	started := make(chan Event, readers)
	streams := make(chan stream, readers)
	for range readers {
		go func() {
			var s stream
			s.err = followEvents(ts, id, func(ev Event) {
				if len(s.events) == 0 {
					started <- ev
				}
				s.events = append(s.events, ev)
			})
			streams <- s
		}()
	}
	for range readers {
		select {
		case ev := <-started:
			if ev.State != stateRunning || ev.Done != 0 {
				t.Fatalf("a reader's first event is %+v, want the running job", ev)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a reader saw no event within 10 s")
		}
	}

	w := remoteWorker(ts.URL, "w", 1, 1, obs.Discard())
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

	for range readers {
		var s stream
		select {
		case s = <-streams:
		case <-time.After(10 * time.Second):
			t.Fatal("a reader's stream did not end within 10 s of the job's last cell")
		}
		if s.err != nil {
			t.Fatal(s.err)
		}
		last := s.events[len(s.events)-1]
		if last.State != stateDone || last.Done != cells || last.Total != cells || !monotonic(s.events) {
			t.Errorf("reader's events %+v, want monotonic counts ending on done %d/%d", s.events, cells, cells)
		}
	}
}

// TestEventsWakeOnFinish: a reader parked on a running job wakes for
// its terminal event even when no progress change precedes it, as when
// a tune search fails before its first batch completes.
func TestEventsWakeOnFinish(t *testing.T) {
	s := &server{byID: make(map[string]*job)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	defer ts.CloseClientConnections() // so Close need not wait for a stuck reader
	j := newJob(SweepSpec{}, nil, 1)
	s.add(j)

	started := make(chan struct{})
	ended := make(chan error, 1)
	var events []Event
	go func() {
		ended <- followEvents(ts, j.id, func(ev Event) {
			if len(events) == 0 {
				close(started)
			}
			events = append(events, ev)
		})
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the reader saw no event within 10 s")
	}
	j.finish(nil, errors.New("search failed"))
	select {
	case err := <-ended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the reader did not wake for the job's terminal event")
	}
	if want := []Event{{0, 1, stateRunning}, {0, 1, stateFailed}}; !reflect.DeepEqual(events, want) {
		t.Errorf("events %+v, want %+v", events, want)
	}
}

// TestTuneProgressCountsEvaluations: a tune job's progress comes from
// its evaluation batches alone. Its event stream never lowers done or
// total and ends with done == total, and that total is the number of
// evaluations the tuner submitted (swpf_tune_evaluations_total).
// Hillclimb submits several batches, so the total grows as it walks.
func TestTuneProgressCountsEvaluations(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(newServerCfg(config{jobs: 2, registry: reg, stderr: &bytes.Buffer{}}))
	defer ts.Close()
	evaluations := func() float64 {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := obs.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if s := obs.Find(samples, "swpf_tune_evaluations_total"); s != nil {
			return s.Value
		}
		return 0
	}

	before := evaluations()
	id := submitTune(t, ts, `{"workloads":"IS","systems":"A53","quality":"tiny","strategy":"hillclimb","cs":"4,16,64,256","hwpf":"none,stride"}`)
	var events []Event
	if err := followEvents(ts, id, func(ev Event) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	last := events[len(events)-1]
	if !monotonic(events) || last.State != stateDone || last.Done == 0 || last.Done != last.Total {
		t.Fatalf("tune events %+v, want monotonic counts ending on done with done == total", events)
	}
	if got := evaluations() - before; float64(last.Total) != got {
		t.Errorf("final total %d, but the tuner counted %v evaluations", last.Total, got)
	}
}
