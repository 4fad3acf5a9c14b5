package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailRank is the 1-based rank of the tail sample among n ascending
// samples: the highest one that still has at least ten samples above
// it (the largest sample when there are fewer than eleven).
func tailRank(n int) int {
	if n < 11 {
		return n
	}
	return n - 10
}

// tail returns the tail value of xs (see tailRank) and its percentile.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := tailRank(len(s))
	return s[k-1], 100 * float64(k) / float64(len(s))
}

// latencyBuckets is a fine log-spaced ladder (1 % steps from 10 µs to
// 1000 s), so quantiles read off an obs.Histogram are within 1 % of the
// observations.
var latencyBuckets = func() []float64 {
	var b []float64
	for v := 1e-5; v < 1e3; v *= 1.01 {
		b = append(b, v)
	}
	return b
}()

// histMedianTail pools the observations of histograms registered with
// latencyBuckets and returns their median, their tail (see tailRank)
// with its percentile, and their count. Values are interpolated
// linearly inside a bucket.
func histMedianTail(hs ...*obs.Histogram) (p50, tailV, pct float64, n int64) {
	var cum []int64
	for _, h := range hs {
		_, c, _ := h.Snapshot()
		if cum == nil {
			cum = make([]int64, len(c))
		}
		for i := range c {
			cum[i] += c[i]
		}
	}
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0, 0, 0, 0
	}
	n = cum[len(cum)-1]
	at := func(rank int64) float64 {
		for i, c := range cum {
			if c < rank {
				continue
			}
			if i == len(latencyBuckets) { // +Inf bucket
				return latencyBuckets[i-1]
			}
			lo, below := 0.0, int64(0)
			if i > 0 {
				lo, below = latencyBuckets[i-1], cum[i-1]
			}
			return lo + (latencyBuckets[i]-lo)*float64(rank-below)/float64(c-below)
		}
		return 0
	}
	k := int64(tailRank(int(n)))
	return at((n + 1) / 2), at(k), 100 * float64(k) / float64(n), n
}

// selfPeakRSSMB is this process's peak resident set.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procPeakRSSMB reads a live process's peak resident set (VmHWM).
func procPeakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of pid %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// cellRecord is everything a simulated cell reports, with its
// coordinates: the unit of stats_sha256.
type cellRecord struct {
	Workload, Params, System, HWPF, Core, Variant, Exec string
	Options                                             core.Options
	Result                                              core.Result
}

// digest hashes every per-cell statistic of results, in request order.
// The pass report (Result.Pass) is left out: replay cannot rebuild it
// and it is not a statistic.
func digest(reqs []sweep.Request, results []*core.Result) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i, req := range reqs {
		rec := cellRecord{
			Workload: req.Workload.Name, Params: req.Workload.Params,
			System: req.System.Name, HWPF: req.System.HWPrefetcherName(), Core: req.System.CoreName(),
			Variant: string(req.Variant), Exec: string(req.ExecMode()), Options: req.Options,
		}
		if res := results[i]; res != nil {
			rec.Result = *res
			rec.Result.Pass = nil
		}
		if err := enc.Encode(rec); err != nil {
			panic(err) // plain data; unreachable
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
