package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/fleet"
	"repro/internal/sweep"
	"repro/internal/tune"
)

// TuneSpec is the POST /tune request body: the shared tune spec of
// internal/tune — the same struct swpfbench's -tune flags and swpfctl
// tune build, validated by the same Space resolver. The embedded grid
// spec selects what to tune; strategy/cs/depths/hoists bound the
// search.
type TuneSpec = tune.Spec

// TuneReply is the POST /tune response.
type TuneReply struct {
	ID string `json:"id"`
}

// handleTune validates a tune spec and starts the search
// asynchronously; the search's evaluation batches go through the
// shared cell queue, so concurrent tunes (and sweeps) dedupe cell by
// cell fleet-wide. The job is visible in /jobs, streams progress on
// /jobs/{id}/events, and serves its report on /results.
func (s *server) handleTune(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading spec: %v", err)
		return
	}
	var tsp TuneSpec
	if err := json.Unmarshal(body, &tsp); err != nil {
		writeError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	if tsp.Gen != 0 || tsp.GenSeed != 0 {
		writeError(w, http.StatusBadRequest, "%s", errGenWire)
		return
	}
	space, err := tsp.Space()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if limit := s.queue.MaxPending(); space.MaxBatch() > limit {
		writeError(w, http.StatusBadRequest, "the search's largest evaluation batch has more cells than the queue's bound of %d live cells", limit)
		return
	}
	j := newJob(tsp.Spec, &tsp, 0)
	s.add(j)
	go s.runTune(j, tsp)
	writeJSON(w, http.StatusAccepted, TuneReply{ID: j.id})
}

func (s *server) runTune(j *job, tsp TuneSpec) {
	tuner := tune.Tuner{
		Runner:  tuneRunner{s: s, quality: tsp.QualityName(), priority: tsp.Priority, j: j},
		Metrics: s.tuneM,
	}
	rep, err := tuner.Run(tsp)
	j.finish(rep, err)
}

// tuneRunner is the daemon's tune.Runner: every evaluation batch is
// submitted to the fleet queue like a sweep, so cells dedupe against
// running jobs, persist in the store, and execute on local and remote
// workers alike. It is the job's one progress feed: each batch adds
// its size to the job's total, and each of its completions to done.
type tuneRunner struct {
	s        *server
	quality  string
	priority int
	j        *job
}

func (tr tuneRunner) Execute(reqs []sweep.Request) (*sweep.ResultSet, error) {
	before, _, _ := tr.j.snapshot()
	total := before.Total + len(reqs)
	tr.j.setProgress(before.Done, total)
	progress := func(done, _ int) { tr.j.setProgress(before.Done+done, total) }
	sets := make(chan *sweep.ResultSet, 1)
	for attempt := 0; ; attempt++ {
		err := tr.s.queue.Submit(reqs, tr.quality, tr.priority, progress, func(set *sweep.ResultSet) { sets <- set })
		var full fleet.ErrQueueFull
		if errors.As(err, &full) && attempt < 20 {
			// Back off and retry: tune batches arrive over the job's
			// lifetime, so transient fullness (other jobs draining) is
			// expected. handleTune refused every search with a batch
			// over the bound; one that still cannot fit fails after
			// the retries with the queue's own error.
			time.Sleep(min(max(full.RetryAfter, 50*time.Millisecond), time.Second))
			continue
		}
		if err != nil {
			return nil, err
		}
		break
	}
	set := <-sets
	return set, set.Err()
}
