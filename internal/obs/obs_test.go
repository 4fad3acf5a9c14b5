package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("swpf_test_total", "test counter")
	g := reg.Gauge("swpf_test_depth", "test gauge")
	c.Inc()
	c.Add(41)
	g.Set(7)
	g.Add(-3)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("swpf_test_seconds", "test histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	bounds, cum, sum := h.Snapshot()
	if !reflect.DeepEqual(bounds, []float64{0.1, 1, 10}) {
		t.Fatalf("bounds = %v", bounds)
	}
	if want := []int64{1, 3, 4, 5}; !reflect.DeepEqual(cum, want) {
		t.Fatalf("cumulative = %v, want %v", cum, want)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(sum-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", sum)
	}
}

func TestRegisterPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("swpf_dup_total", "x", L("a", "1"))
	mustPanic(t, "duplicate series", func() { reg.Counter("swpf_dup_total", "x", L("a", "1")) })
	mustPanic(t, "kind clash", func() { reg.Gauge("swpf_dup_total", "x") })
	mustPanic(t, "empty name", func() { reg.Counter("", "x") })
	mustPanic(t, "descending buckets", func() {
		reg.Histogram("swpf_bad_seconds", "x", []float64{1, 0.5})
	})
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

// TestExpositionRoundTrip is the exposition-format test: the text
// output must be parseable by the package's own minimal Prometheus
// parser with names, labels, and values intact — including histogram
// expansion and label escaping.
func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("swpf_rt_total", "a counter", L("route", "GET /fleet")).Add(3)
	reg.Gauge("swpf_rt_depth", "a gauge").Set(-2)
	h := reg.Histogram("swpf_rt_seconds", "a histogram", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.5)
	reg.Counter("swpf_rt_weird_total", "escapes", L("k", "a\"b\\c\nd")).Inc()
	reg.Collect(func(emit func(Sample)) {
		emit(Sample{Name: "swpf_rt_collected", Kind: KindGauge, Value: 9, Labels: []Label{L("src", "collector")}})
	})

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, buf.String())
	}

	if s := Find(samples, "swpf_rt_total", L("route", "GET /fleet")); s == nil || s.Value != 3 || s.Kind != KindCounter {
		t.Fatalf("swpf_rt_total: %+v", s)
	}
	if s := Find(samples, "swpf_rt_depth"); s == nil || s.Value != -2 || s.Kind != KindGauge {
		t.Fatalf("swpf_rt_depth: %+v", s)
	}
	if s := Find(samples, "swpf_rt_weird_total", L("k", "a\"b\\c\nd")); s == nil || s.Value != 1 {
		t.Fatalf("escaped label did not round-trip: %+v", s)
	}
	if s := Find(samples, "swpf_rt_collected", L("src", "collector")); s == nil || s.Value != 9 {
		t.Fatalf("collector sample: %+v", s)
	}
	// Histogram expansion: buckets cumulative, +Inf == _count.
	if s := Find(samples, "swpf_rt_seconds_bucket", L("le", "0.01")); s == nil || s.Value != 1 {
		t.Fatalf("le=0.01 bucket: %+v", s)
	}
	if s := Find(samples, "swpf_rt_seconds_bucket", L("le", "+Inf")); s == nil || s.Value != 2 {
		t.Fatalf("le=+Inf bucket: %+v", s)
	}
	cnt := Find(samples, "swpf_rt_seconds_count")
	if cnt == nil || cnt.Value != 2 || cnt.Kind != KindHistogram {
		t.Fatalf("_count: %+v", cnt)
	}
	if s := Find(samples, "swpf_rt_seconds_sum"); s == nil || math.Abs(s.Value-0.505) > 1e-9 {
		t.Fatalf("_sum: %+v", s)
	}
	// Families must be sorted by name for scrape stability.
	names := Names(samples)
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("swpf_js_total", "c", L("x", "1")).Add(5)
	reg.Histogram("swpf_js_seconds", "h", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]struct {
		Type   string `json:"type"`
		Series []struct {
			Labels  map[string]string `json:"labels"`
			Value   *float64          `json:"value"`
			Count   *int64            `json:"count"`
			Buckets map[string]int64  `json:"buckets"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, buf.String())
	}
	c := out["swpf_js_total"]
	if c.Type != "counter" || len(c.Series) != 1 || c.Series[0].Value == nil || *c.Series[0].Value != 5 {
		t.Fatalf("counter family: %+v", c)
	}
	if c.Series[0].Labels["x"] != "1" {
		t.Fatalf("labels: %+v", c.Series[0].Labels)
	}
	h := out["swpf_js_seconds"]
	if h.Type != "histogram" || len(h.Series) != 1 || h.Series[0].Count == nil || *h.Series[0].Count != 1 {
		t.Fatalf("histogram family: %+v", h)
	}
	if h.Series[0].Buckets["+Inf"] != 1 {
		t.Fatalf("histogram buckets: %+v", h.Series[0].Buckets)
	}
}

// TestMiddleware pins status capture, route labels from mux patterns,
// byte counting, latency observation, and request-ID behavior.
func TestMiddleware(t *testing.T) {
	reg := NewRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ok", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "hello")
	})
	mux.HandleFunc("GET /fail", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	mux.HandleFunc("GET /rid", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, RequestID(r.Context()))
	})
	m := NewHTTPMetrics(reg, []string{"GET /ok", "GET /fail", "GET /rid"})
	var logBuf bytes.Buffer
	h := m.Middleware(mux, slog.New(slog.NewTextHandler(&logBuf, nil)))
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rid := resp.Header.Get(RequestIDHeader)
	if len(rid) != 16 {
		t.Fatalf("response request ID = %q, want 16 hex chars", rid)
	}
	if _, err := http.Get(srv.URL + "/fail"); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(srv.URL + "/nosuch"); err != nil {
		t.Fatal(err)
	}

	// A caller-supplied request ID must be honored and reach the handler.
	req, _ := http.NewRequest("GET", srv.URL+"/rid", nil)
	req.Header.Set(RequestIDHeader, "cafe0123cafe0123")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if body.String() != "cafe0123cafe0123" {
		t.Fatalf("handler saw rid %q, want cafe0123cafe0123", body.String())
	}
	if got := resp.Header.Get(RequestIDHeader); got != "cafe0123cafe0123" {
		t.Fatalf("echoed rid = %q", got)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s := Find(samples, "swpf_http_requests_total", L("route", "GET /ok"), L("class", "2xx")); s == nil || s.Value != 1 {
		t.Fatalf("ok 2xx: %+v", s)
	}
	if s := Find(samples, "swpf_http_requests_total", L("route", "GET /fail"), L("class", "5xx")); s == nil || s.Value != 1 {
		t.Fatalf("fail 5xx: %+v", s)
	}
	if s := Find(samples, "swpf_http_requests_total", L("route", "other"), L("class", "4xx")); s == nil || s.Value != 1 {
		t.Fatalf("unmatched route must land in other/4xx: %+v", s)
	}
	if s := Find(samples, "swpf_http_response_bytes_total", L("route", "GET /ok")); s == nil || s.Value != float64(len("hello")) {
		t.Fatalf("bytes: %+v", s)
	}
	if s := Find(samples, "swpf_http_request_duration_seconds_count", L("route", "GET /ok")); s == nil || s.Value != 1 {
		t.Fatalf("duration count: %+v", s)
	}
	if s := Find(samples, "swpf_http_inflight_requests"); s == nil || s.Value != 0 {
		t.Fatalf("inflight after drain: %+v", s)
	}
	// Access log carries the correlatables.
	logs := logBuf.String()
	for _, want := range []string{"rid=", "route=\"GET /ok\"", "status=500", "method=GET"} {
		if !strings.Contains(logs, want) {
			t.Fatalf("access log missing %q:\n%s", want, logs)
		}
	}
}

// TestMiddlewareFlusher verifies the capturing ResponseWriter still
// exposes Flush, which the SSE endpoint depends on.
func TestMiddlewareFlusher(t *testing.T) {
	reg := NewRegistry()
	mux := http.NewServeMux()
	flushed := false
	mux.HandleFunc("GET /sse", func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("ResponseWriter lost http.Flusher")
			return
		}
		fmt.Fprint(w, "data: x\n\n")
		f.Flush()
		flushed = true
	})
	h := NewHTTPMetrics(reg, []string{"GET /sse"}).Middleware(mux, Discard())
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/sse")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !flushed {
		t.Fatal("handler did not flush")
	}
}

// TestRegistryRace hammers instruments and scrapes concurrently; its
// value is under -race (CI runs the short suite with -race on).
func TestRegistryRace(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("swpf_race_total", "")
	g := reg.Gauge("swpf_race_depth", "")
	h := reg.Histogram("swpf_race_seconds", "", nil)
	reg.Collect(func(emit func(Sample)) {
		emit(Sample{Name: "swpf_race_collected", Kind: KindGauge, Value: float64(c.Value())})
	})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j) * 1e-4)
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var buf bytes.Buffer
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
				if err := reg.WriteJSON(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 4000 || h.Count() != 4000 {
		t.Fatalf("lost updates: counter=%d histogram=%d", c.Value(), h.Count())
	}
}

// TestHandlerContentTypes: the handler serves Prometheus text whatever
// the request asks for; WriteJSON (GET /debug/vars) is the JSON view.
func TestHandlerContentTypes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("swpf_ct_total", "").Inc()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	for _, tc := range []struct{ query, accept string }{
		{"", ""},
		{"?format=json", ""},
		{"", "application/json"},
	} {
		req, err := http.NewRequest(http.MethodGet, srv.URL+tc.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		samples, perr := ParseText(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("query %q, Accept %q: content type = %q, want text", tc.query, tc.accept, ct)
		}
		if perr != nil || Find(samples, "swpf_ct_total") == nil {
			t.Errorf("query %q, Accept %q: body not the text exposition (%v)", tc.query, tc.accept, perr)
		}
	}
}

func TestLogFlags(t *testing.T) {
	for _, tc := range []struct {
		level, format string
		wantErr       bool
	}{
		{"info", "text", false},
		{"debug", "json", false},
		{"warn", "text", false},
		{"error", "json", false},
		{"nope", "text", true},
		{"info", "yaml", true},
	} {
		lf := &LogFlags{Level: tc.level, Format: tc.format}
		_, err := lf.Logger(&bytes.Buffer{})
		if (err != nil) != tc.wantErr {
			t.Errorf("Logger(%s,%s) err = %v, wantErr %v", tc.level, tc.format, err, tc.wantErr)
		}
	}
	var buf bytes.Buffer
	lf := &LogFlags{Level: "warn", Format: "json"}
	log, err := lf.Logger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hidden")
	log.Warn("shown", "k", "v")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not one JSON record: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "shown" || rec["k"] != "v" {
		t.Fatalf("record = %v", rec)
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("lengths: %q %q", a, b)
	}
	if a == b {
		t.Fatalf("collision: %q", a)
	}
}
