package fleet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestQueueMetrics: the queue's registry collector must expose exactly
// the numbers Stats() reports — both come from the same snapshot
// function, so /metrics and GET /fleet can never disagree — and the
// cell-latency histogram must observe each accepted completion with
// the injected clock's lease→complete delta.
func TestQueueMetrics(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	reg := obs.NewRegistry()
	q := New(Options{Registry: reg, Now: clock})
	reqs, _ := tinyReqs(t, 2, core.ExecDirect)

	if _, err := submit(q, reqs, 0); err != nil {
		t.Fatal(err)
	}
	l := leaseNow(q, "w1", 64)
	if l == nil {
		t.Fatal("no lease")
	}
	now = now.Add(250 * time.Millisecond)
	var res []CellResult
	for i, c := range l.Cells {
		res = append(res, CellResult{Key: c.Key, Result: fakeResult(i)})
	}
	if acc, _ := q.Complete(l.ID, "w1", res); acc != len(res) {
		t.Fatalf("accepted %d, want %d", acc, len(res))
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	for name, want := range map[string]float64{
		"swpf_queue_pending":           float64(st.Pending),
		"swpf_queue_leased":            float64(st.Leased),
		"swpf_queue_leases":            float64(st.Leases),
		"swpf_queue_workers":           1,
		"swpf_queue_max_pending":       float64(st.MaxPending),
		"swpf_queue_submissions_total": float64(st.Submissions),
		"swpf_queue_cells_total":       float64(st.CellsSeen),
		"swpf_queue_cache_hits_total":  float64(st.CacheHits),
		"swpf_queue_dedup_hits_total":  float64(st.DedupHits),
		"swpf_queue_completed_total":   float64(st.Completed),
		"swpf_queue_failed_total":      float64(st.Failed),
		"swpf_queue_requeued_total":    float64(st.Requeued),
		"swpf_queue_dup_dropped_total": float64(st.DupDropped),
	} {
		s := obs.Find(samples, name)
		if s == nil {
			t.Errorf("metric %s missing", name)
			continue
		}
		if s.Value != want {
			t.Errorf("%s = %v, want %v", name, s.Value, want)
		}
	}
	if st.Completed != int64(len(reqs)) {
		t.Fatalf("completed = %d, want %d", st.Completed, len(reqs))
	}

	// Histogram: one observation per accepted cell, each 0.25s, so
	// every observation lands at or below the 1s bound.
	if s := obs.Find(samples, "swpf_fleet_cell_seconds_count"); s == nil || s.Value != float64(len(reqs)) {
		t.Fatalf("cell_seconds count: %+v", s)
	}
	if s := obs.Find(samples, "swpf_fleet_cell_seconds_sum"); s == nil || s.Value != 0.25*float64(len(reqs)) {
		t.Fatalf("cell_seconds sum: %+v", s)
	}
	if s := obs.Find(samples, "swpf_fleet_cell_seconds_bucket", obs.L("le", "1")); s == nil || s.Value != float64(len(reqs)) {
		t.Fatalf("cell_seconds le=1 bucket: %+v", s)
	}
	if s := obs.Find(samples, "swpf_fleet_cell_seconds_bucket", obs.L("le", "0.1")); s == nil || s.Value != 0 {
		t.Fatalf("cell_seconds le=0.1 bucket: %+v", s)
	}
}
