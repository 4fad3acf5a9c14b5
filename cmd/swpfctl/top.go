// The top verb: a one-shot (or -follow) fleet dashboard rendered from
// the coordinator's GET /metrics Prometheus exposition — the same
// counters /fleet serves, read through the metrics pipeline so the verb
// doubles as an end-to-end check of the observability layer.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// scrapeMetrics fetches and parses one /metrics exposition.
func scrapeMetrics(addr string) ([]obs.Sample, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return obs.ParseText(resp.Body)
}

// metricValue returns a sample's value, or 0 when the series is absent
// (a daemon without a store simply has no swpf_store_* series).
func metricValue(samples []obs.Sample, name string, labels ...obs.Label) float64 {
	if s := obs.Find(samples, name, labels...); s != nil {
		return s.Value
	}
	return 0
}

// cmdTop renders the dashboard once, or every -interval with -follow.
func cmdTop(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swpfctl top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addrFlag = fs.String("addr", "", "coordinator URL (default $SWPFCTL_ADDR, config file, or "+defaultAddr+")")
		followIt = fs.Bool("follow", false, "refresh every -interval instead of printing once")
		interval = fs.Duration("interval", 2*time.Second, "refresh period with -follow")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("top takes no positional arguments (got %q)", fs.Arg(0))
	}
	addr, _ := resolveAddr(*addrFlag)
	for {
		samples, err := scrapeMetrics(addr)
		if err != nil {
			return err
		}
		if *followIt {
			fmt.Fprint(stdout, "\x1b[2J\x1b[H") // clear screen, home cursor
		}
		renderTop(stdout, addr, samples)
		if !*followIt {
			return nil
		}
		time.Sleep(*interval)
	}
}

// renderTop prints the dashboard sections. Every number is read back
// out of the exposition, never from /fleet — if top shows it, the
// metrics pipeline carried it.
func renderTop(w io.Writer, addr string, samples []obs.Sample) {
	v := func(name string, labels ...obs.Label) float64 { return metricValue(samples, name, labels...) }

	fmt.Fprintf(w, "swpf top — %s — %s\n\n", addr, time.Now().Format(time.TimeOnly))
	fmt.Fprintf(w, "queue   pending %.0f  leased %.0f  leases %.0f  workers %.0f  cap %.0f\n",
		v("swpf_queue_pending"), v("swpf_queue_leased"), v("swpf_queue_leases"),
		v("swpf_queue_workers"), v("swpf_queue_max_pending"))
	fmt.Fprintf(w, "cells   completed %.0f  failed %.0f  cache %.0f  dedup %.0f  requeued %.0f  dropped %.0f\n",
		v("swpf_queue_completed_total"), v("swpf_queue_failed_total"),
		v("swpf_queue_cache_hits_total"), v("swpf_queue_dedup_hits_total"),
		v("swpf_queue_requeued_total"), v("swpf_queue_dup_dropped_total"))
	if n := v("swpf_fleet_cell_seconds_count"); n > 0 {
		fmt.Fprintf(w, "latency %.0f cells, avg %s lease→complete\n",
			n, fmtSeconds(v("swpf_fleet_cell_seconds_sum")/n))
	}

	if obs.Find(samples, "swpf_store_puts_total") != nil {
		fmt.Fprintf(w, "store   hits %.0f  misses %.0f  puts %.0f\n",
			v("swpf_store_hits_total"), v("swpf_store_misses_total"), v("swpf_store_puts_total"))
	}

	var sweepTotal float64
	var sweepParts []string
	for _, source := range []string{"cache", "direct", "recorded", "replayed"} {
		n := v("swpf_sweep_cells_total", obs.L("source", source))
		sweepTotal += n
		sweepParts = append(sweepParts, fmt.Sprintf("%s %.0f", source, n))
	}
	if sweepTotal > 0 {
		fmt.Fprintf(w, "sweep   %s\n", strings.Join(sweepParts, "  "))
	}
	if n := v("swpf_tune_evaluations_total"); n > 0 {
		fmt.Fprintf(w, "tune    rounds %.0f  evaluations %.0f  memo hits %.0f\n",
			v("swpf_tune_rounds_total"), n, v("swpf_tune_memo_hits_total"))
	}

	fmt.Fprintf(w, "\nhttp    %-28s %8s %10s %12s\n", "route", "reqs", "avg", "bytes")
	type routeRow struct {
		route string
		reqs  float64
	}
	byRoute := make(map[string]float64)
	for _, s := range samples {
		if s.Name != "swpf_http_requests_total" {
			continue
		}
		for _, l := range s.Labels {
			if l.Key == "route" {
				byRoute[l.Value] += s.Value
			}
		}
	}
	rows := make([]routeRow, 0, len(byRoute))
	for route, reqs := range byRoute {
		if reqs > 0 {
			rows = append(rows, routeRow{route, reqs})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].reqs != rows[j].reqs {
			return rows[i].reqs > rows[j].reqs
		}
		return rows[i].route < rows[j].route
	})
	for _, r := range rows {
		route := obs.L("route", r.route)
		avg := "-"
		if n := metricValue(samples, "swpf_http_request_duration_seconds_count", route); n > 0 {
			avg = fmtSeconds(metricValue(samples, "swpf_http_request_duration_seconds_sum", route) / n)
		}
		fmt.Fprintf(w, "        %-28s %8.0f %10s %12.0f\n",
			r.route, r.reqs, avg, metricValue(samples, "swpf_http_response_bytes_total", route))
	}
}

// fmtSeconds renders a duration in seconds at a human scale.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
