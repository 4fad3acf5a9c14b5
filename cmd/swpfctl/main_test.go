package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/sweep"
	"repro/internal/workloads"
)

// fakeCoordinator is a stub swpfd implementing the endpoints the
// client drives; it records what it served.
type fakeCoordinator struct {
	mu        sync.Mutex
	submitted []string // request bodies, in order
}

func (f *fakeCoordinator) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweep", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		f.mu.Lock()
		f.submitted = append(f.submitted, string(body))
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		if bytes.HasPrefix(bytes.TrimSpace(body), []byte("[")) {
			fmt.Fprint(w, `[{"id":"job-1","cells":2},{"id":"job-2","cells":1}]`)
			return
		}
		fmt.Fprint(w, `{"id":"job-1","cells":4}`)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `[{"id":"job-1","state":"done","total":4,"done":4}]`)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if id != "job-1" && id != "job-2" {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, `{"error":"unknown job %q"}`, id)
			return
		}
		fmt.Fprintf(w, `{"id":%q,"state":"done","total":4,"done":4}`, id)
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "data: {\"done\":2,\"total\":4,\"state\":\"running\"}\n\n")
		fmt.Fprint(w, "data: {\"done\":4,\"total\":4,\"state\":\"done\"}\n\n")
	})
	mux.HandleFunc("GET /results", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("id") != "job-1" {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown job"}`)
			return
		}
		if r.URL.Query().Get("format") == "csv" {
			fmt.Fprint(w, "workload,system\nIS,A53\n")
			return
		}
		fmt.Fprint(w, `[{"workload":"IS"}]`)
	})
	mux.HandleFunc("GET /meta", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"qualities":["full","quick","tiny","gen"],"systems":[{},{},{},{}]}`)
	})
	mux.HandleFunc("GET /fleet", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"queue":{"pending":0,"leased":0,"completed":4,"max_pending":65536,
			"workers":[{"name":"local-0"}]},"store":{"Hits":4,"Misses":4,"Puts":4}}`)
	})
	return mux
}

// start runs the fake and isolates the test from ambient config
// (env vars, a real ~/.config) so precedence is exactly what the test
// sets up.
func start(t *testing.T) (*fakeCoordinator, *httptest.Server) {
	t.Helper()
	f := &fakeCoordinator{}
	ts := httptest.NewServer(f.handler())
	t.Cleanup(ts.Close)
	t.Setenv(addrEnvVar, "")
	t.Setenv(configEnvVar, filepath.Join(t.TempDir(), "absent.json"))
	return f, ts
}

func TestAddrPrecedence(t *testing.T) {
	_, ts := start(t)

	// Layer 4: default.
	t.Setenv(configEnvVar, filepath.Join(t.TempDir(), "nope.json"))
	if addr, source := resolveAddr(""); addr != defaultAddr || source != "default" {
		t.Errorf("default layer: %s from %s", addr, source)
	}

	// Layer 3: config file.
	cfg := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(cfg, []byte(`{"addr":"http://cfg:1/"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv(configEnvVar, cfg)
	if addr, source := resolveAddr(""); addr != "http://cfg:1" || !strings.HasPrefix(source, "config ") {
		t.Errorf("config layer: %s from %s", addr, source)
	}

	// Layer 2: env beats config.
	t.Setenv(addrEnvVar, "http://env:2")
	if addr, source := resolveAddr(""); addr != "http://env:2" || source != "env $"+addrEnvVar {
		t.Errorf("env layer: %s from %s", addr, source)
	}

	// Layer 1: flag beats env and config.
	if addr, source := resolveAddr(ts.URL); addr != ts.URL || source != "flag" {
		t.Errorf("flag layer: %s from %s", addr, source)
	}

	// XDG fallback path shape (no $SWPFCTL_CONFIG).
	t.Setenv(configEnvVar, "")
	t.Setenv("XDG_CONFIG_HOME", "/xdg")
	if got, want := configPath(), filepath.Join("/xdg", "swpfctl", "config.json"); got != want {
		t.Errorf("configPath = %q, want %q", got, want)
	}
}

func TestSubmitAxisFlags(t *testing.T) {
	f, ts := start(t)
	var out, errb bytes.Buffer
	err := run([]string{"submit", "-addr", ts.URL,
		"-workloads", "IS,CG", "-systems", "A53", "-variants", "plain,auto",
		"-c", "16", "-quality", "tiny", "-priority", "3"}, &out, &errb)
	if err != nil {
		t.Fatalf("submit: %v (%s)", err, errb.String())
	}
	if got := out.String(); got != "job-1\t4 cells\n" {
		t.Errorf("submit output = %q", got)
	}
	if len(f.submitted) != 1 {
		t.Fatalf("submitted %d specs", len(f.submitted))
	}
	var spec map[string]any
	if err := json.Unmarshal([]byte(f.submitted[0]), &spec); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"workloads": "IS,CG", "systems": "A53", "variants": "plain,auto",
		"c": float64(16), "quality": "tiny", "priority": float64(3),
	}
	for k, v := range want {
		if spec[k] != v {
			t.Errorf("spec[%s] = %v, want %v", k, spec[k], v)
		}
	}
	if _, ok := spec["hwpf"]; ok {
		t.Error("unset axis flag leaked into the spec")
	}
}

func TestSubmitFileAndWait(t *testing.T) {
	f, ts := start(t)
	specFile := filepath.Join(t.TempDir(), "specs.json")
	batch := `[{"workloads":"IS","quality":"tiny"},{"workloads":"CG","quality":"tiny"}]`
	if err := os.WriteFile(specFile, []byte(batch), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := run([]string{"submit", "-addr", ts.URL, "-f", specFile, "-wait"}, &out, &errb); err != nil {
		t.Fatalf("submit -f -wait: %v (%s)", err, errb.String())
	}
	if f.submitted[0] != batch {
		t.Errorf("file body not passed through: %q", f.submitted[0])
	}
	if got := out.String(); !strings.Contains(got, "job-1\t2 cells\n") || !strings.Contains(got, "job-2\t1 cells\n") {
		t.Errorf("batch output = %q", got)
	}
	// -wait followed the event stream.
	if !strings.Contains(errb.String(), "4/4\tdone") {
		t.Errorf("wait progress missing: %q", errb.String())
	}
}

func TestStatusAndFollow(t *testing.T) {
	_, ts := start(t)
	var out bytes.Buffer
	if err := run([]string{"status", "-addr", ts.URL}, &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "job-1\tdone\t4/4\n" {
		t.Errorf("status list = %q", got)
	}

	out.Reset()
	if err := run([]string{"status", "-addr", ts.URL, "-follow", "job-1"}, &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "job-1\t2/4\trunning\n") || !strings.HasSuffix(got, "job-1\tdone\t4/4\n") {
		t.Errorf("follow output = %q", got)
	}

	// Unknown job surfaces the daemon's error body.
	err := run([]string{"status", "-addr", ts.URL, "job-9"}, &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), `unknown job "job-9"`) {
		t.Errorf("unknown job error = %v", err)
	}
}

func TestResults(t *testing.T) {
	_, ts := start(t)
	var out bytes.Buffer
	if err := run([]string{"results", "-addr", ts.URL, "-id", "job-1"}, &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if out.String() != `[{"workload":"IS"}]` {
		t.Errorf("results json = %q", out.String())
	}

	// -format csv -o file.
	dst := filepath.Join(t.TempDir(), "out.csv")
	if err := run([]string{"results", "-addr", ts.URL, "-id", "job-1", "-format", "csv", "-o", dst}, &bytes.Buffer{}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "workload,system\nIS,A53\n" {
		t.Errorf("results csv file = %q", data)
	}

	// Client-side validation.
	if err := run([]string{"results", "-addr", ts.URL}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("missing -id accepted")
	}
	if err := run([]string{"results", "-addr", ts.URL, "-id", "job-1", "-format", "xml"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("bad -format accepted")
	}
}

func TestDoctor(t *testing.T) {
	_, ts := start(t)
	var out bytes.Buffer
	if err := run([]string{"doctor", "-addr", ts.URL}, &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"coordinator:\t" + ts.URL + " (from flag)",
		"daemon:\tok (4 qualities, 4 systems)",
		"queue:\t0 pending, 0 leased, 4 completed (cap 65536)",
		"workers:\t1 (local-0)",
		"store:\t4 hits, 4 misses, 4 puts",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("doctor output missing %q:\n%s", want, got)
		}
	}

	// A dead coordinator is an error, after reporting the config.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if err := run([]string{"doctor", "-addr", dead.URL}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("doctor against dead coordinator succeeded")
	}
}

func TestBadCommands(t *testing.T) {
	for _, argv := range [][]string{
		{},
		{"teleport"},
		{"submit", "-f", "x", "-spec", "{}"},
		{"submit", "positional"},
		{"status", "-follow"},
		{"status", "a", "b"},
	} {
		if err := run(argv, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%q) accepted", argv)
		}
	}
}

// flagHelp runs `swpfctl VERB -h` and returns each flag's usage text.
func flagHelp(t *testing.T, verb string) map[string]string {
	t.Helper()
	var errb bytes.Buffer
	if err := run([]string{verb, "-h"}, &bytes.Buffer{}, &errb); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("%s -h = %v", verb, err)
	}
	help := make(map[string]string)
	var name string
	for _, line := range strings.Split(errb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ = strings.Cut(rest, " ")
		} else if name != "" {
			help[name] += strings.TrimSpace(line)
		}
	}
	return help
}

// TestSpecFlagHelp: the spec flags' help says what the spec does with
// each value: an empty -variants selects the variant axis's default,
// -c 0 is the paper's 64, -depth and -depths are stagger-depth limits
// where 0 is unlimited, -quality names every workload pool, and each
// axis flag of submit names exactly its axis's values.
func TestSpecFlagHelp(t *testing.T) {
	submit, tune := flagHelp(t, "submit"), flagHelp(t, "tune")
	var def []string
	for _, v := range sweep.VariantAxis().Default {
		def = append(def, string(v))
	}
	checks := []struct{ flag, help, want string }{
		{"submit -variants", submit["variants"], "(empty = " + strings.Join(def, ",") + ")"},
		{"submit -c", submit["c"], "(0 = the paper's 64)"},
		{"submit -depth", submit["depth"], "stagger depth limit (0 = unlimited)"},
		{"tune -depths", tune["depths"], "stagger-depth"},
		{"tune -depths", tune["depths"], "0 = unlimited"},
	}
	for _, q := range workloads.Qualities() {
		checks = append(checks, struct{ flag, help, want string }{"tune -quality", tune["quality"], q})
	}
	for flag, names := range map[string][]string{
		"variants": sweep.VariantAxis().Names(),
		"hwpf":     sweep.HWPrefetcherAxis().Names(),
		"core":     sweep.CoreAxis().Names(),
		"exec":     sweep.ExecModeAxis().Names(),
	} {
		want := "among " + strings.Join(names, ",") + " "
		checks = append(checks, struct{ flag, help, want string }{"submit -" + flag, submit[flag], want})
	}
	for _, c := range checks {
		if !strings.Contains(c.help, c.want) {
			t.Errorf("%s help %q does not say %q", c.flag, c.help, c.want)
		}
	}
}
