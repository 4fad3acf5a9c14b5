package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// tinyGrid is a small but multi-cell experiment grid: two workloads,
// two systems, two variants, non-default options.
func tinyGrid() sweep.Grid {
	tiny := workloads.Tiny()
	return sweep.Grid{
		Workloads: []*workloads.Workload{tiny[0], tiny[1]},
		Systems:   []*sim.Config{sim.DefaultConfig(), inOrderConfig()},
		Variants:  []core.Variant{core.VariantPlain, core.VariantAuto},
		Options:   core.Options{C: 16, Hoist: true},
	}
}

// inOrderConfig is a second machine that differs from DefaultConfig in
// several stat-affecting fields.
func inOrderConfig() *sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Name = "generic-inorder"
	cfg.OutOfOrder = false
	cfg.IssueWidth = 2
	return cfg
}

// emit serializes a result set the way every consumer does.
func emit(t *testing.T, set *sweep.ResultSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWarmSweepBitIdentical is the cache-correctness contract: a sweep
// served entirely from a warm store emits bytes identical to the cold
// run that populated it, and to an uncached run.
func TestWarmSweepBitIdentical(t *testing.T) {
	dir := t.TempDir()
	grid := tinyGrid()
	cells := len(grid.Expand())

	plain, err := grid.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	want := emit(t, plain)

	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	set, err := grid.RunWith(sweep.Runner{Jobs: 2, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	if got := emit(t, set); !bytes.Equal(got, want) {
		t.Fatalf("cold cached run differs from uncached run:\n%s\nvs\n%s", got, want)
	}
	if st := cold.Stats(); st.Hits != 0 || st.Misses != int64(cells) || st.Puts != int64(cells) {
		t.Fatalf("cold stats = %+v, want 0 hits / %d misses / %d puts", st, cells, cells)
	}

	// Reopen: every cell must come from disk, bit-identically.
	warm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	set, err = grid.RunWith(sweep.Runner{Jobs: 2, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	if got := emit(t, set); !bytes.Equal(got, want) {
		t.Fatalf("warm run differs from cold run:\n%s\nvs\n%s", got, want)
	}
	if st := warm.Stats(); st.Hits != int64(cells) || st.Misses != 0 || st.Puts != 0 {
		t.Fatalf("warm stats = %+v, want %d hits / 0 misses / 0 puts", st, cells)
	}
}

// TestKeySensitivity proves every component of a request changes the
// key: workload identity and parameters, any machine-configuration
// field, the variant, every option, and the version salt.
func TestKeySensitivity(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiny := workloads.Tiny()
	base := sweep.Request{
		Workload: tiny[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantAuto,
		Options:  core.Options{C: 16},
	}
	baseKey := s.Key(base)

	mutate := func(name string, f func(r *sweep.Request)) {
		r := base
		f(&r)
		if k := s.Key(r); k == baseKey {
			t.Errorf("%s: key unchanged (%s)", name, k)
		}
	}
	mutate("workload", func(r *sweep.Request) { r.Workload = tiny[1] })
	mutate("workload params", func(r *sweep.Request) {
		w := *tiny[0]
		w.Params = "nkeys=1,nbuckets=1"
		r.Workload = &w
	})
	mutate("variant", func(r *sweep.Request) { r.Variant = core.VariantPlain })
	mutate("option C", func(r *sweep.Request) { r.Options.C = 32 })
	mutate("option Depth", func(r *sweep.Request) { r.Options.Depth = 2 })
	mutate("option Hoist", func(r *sweep.Request) { r.Options.Hoist = true })
	mutate("option FlatOffset", func(r *sweep.Request) { r.Options.FlatOffset = true })
	mutate("option MaxInstrs", func(r *sweep.Request) { r.Options.MaxInstrs = 1 << 20 })
	mutate("system cache size", func(r *sweep.Request) {
		cfg := sim.DefaultConfig()
		cfg.Caches = append([]sim.CacheConfig(nil), cfg.Caches...)
		cfg.Caches[0].Size *= 2
		r.System = cfg
	})
	mutate("system MSHRs", func(r *sweep.Request) {
		cfg := sim.DefaultConfig()
		cfg.MSHRs++
		r.System = cfg
	})
	mutate("system page size", func(r *sweep.Request) {
		cfg := sim.DefaultConfig()
		cfg.PageSize *= 2
		r.System = cfg
	})

	// Same content, different pointer: the key must NOT change — it is
	// content-addressed, not identity-addressed.
	r := base
	r.System = sim.DefaultConfig()
	if k := s.Key(r); k != baseKey {
		t.Errorf("fresh but identical config changed key: %s vs %s", k, baseKey)
	}

	// Salt: a different simulator version makes every key miss.
	salted, err := OpenSalted(s.Dir(), "sim-stats-v999")
	if err != nil {
		t.Fatal(err)
	}
	if k := salted.Key(base); k == baseKey {
		t.Error("version salt did not change key")
	}
}

// TestSaltInvalidation: entries written under one simulator version
// are invisible under another, and reappear under the original.
func TestSaltInvalidation(t *testing.T) {
	dir := t.TempDir()
	req := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantPlain,
	}
	res, err := core.Run(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		t.Fatal(err)
	}

	v1, err := OpenSalted(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.Put(req, res); err != nil {
		t.Fatal(err)
	}
	if _, ok := v1.Get(req); !ok {
		t.Fatal("v1 store misses its own entry")
	}

	v2, err := OpenSalted(dir, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.Get(req); ok {
		t.Fatal("bumped salt still hits stale entry")
	}

	back, err := OpenSalted(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Get(req); !ok {
		t.Fatal("original salt lost its entry")
	}
}

// TestCachedResultFields: a round-tripped result reproduces every
// emitted statistic of the original, field by field.
func TestCachedResultFields(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantAuto,
		Options:  core.Options{C: 16},
	}
	res, err := core.Run(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(req, res); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(req)
	if !ok {
		t.Fatal("put entry misses")
	}
	// Pass is documented as uncached; everything else must match.
	want := *res
	want.Pass = nil
	if *got != want {
		t.Errorf("cached result differs:\ngot  %+v\nwant %+v", *got, want)
	}
}

// TestPutLineBytes pins one log line byte for byte: stores written by
// earlier builds must keep serving, so the object's field names and
// order, the snapshot's included, are the on-disk format.
func TestPutLineBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSalted(dir, "pin")
	if err != nil {
		t.Fatal(err)
	}
	req := sweep.Request{
		Workload: &workloads.Workload{Name: "IS", Params: "n=8"},
		System:   &sim.Config{Name: "M"},
		Variant:  core.VariantAuto,
		Options:  core.Options{C: 16, Depth: 2, Hoist: true},
	}
	res := &core.Result{
		Checksum: -7, Cycles: 1234.5,
		Stats:  interp.Stats{Cycles: 1234.5, Instructions: 11, Executed: 15, Loads: 12, Stores: 13, Prefetches: 14},
		L1Hits: 1, L1Misses: 2, DRAMAccesses: 3, SWPrefetches: 4, HWPrefetches: 5, HWPrefetchDropped: 6,
		TLBWalks: 7, LoadStallCycles: 8.25, PrefetchLateCycles: 9.5, PrefetchedUnusedL1: 10,
	}
	res.Stats.OpCounts[1] = 3
	if err := s.Put(req, res); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"Key":"2047daeda02745edeb2e39ad1ee26a2f57f1d768728fe50f4cc011582b94c24c","Salt":"pin","Workload":"IS","Params":"n=8","System":"M","Variant":"auto","Options":{"C":16,"Depth":2,"FlatOffset":false,"Hoist":true,"MaxInstrs":0},"Result":{"Checksum":-7,"Cycles":1234.5,"Stats":{"Cycles":1234.5,"Instructions":11,"Executed":15,"OpCounts":[0,3,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"Loads":12,"Stores":13,"Prefetches":14},"L1Hits":1,"L1Misses":2,"DRAMAccesses":3,"SWPrefetches":4,"HWPrefetches":5,"HWPrefetchDropped":6,"TLBWalks":7,"LoadStallCycles":8.25,"PrefetchLateCycles":9.5,"PrefetchedUnusedL1":10}}` + "\n"
	if string(got) != want {
		t.Errorf("Put line:\n got %s\nwant %s", got, want)
	}
	if back, ok := s.Get(req); !ok || back.Data() != res.Data() {
		t.Errorf("the pinned line reads back as %+v, %v", back, ok)
	}
}

// TestCorruptObjectIsMiss: a garbage line, an unterminated record (a
// crash mid-append) and a well-formed line naming another key, each
// appended to the log, are misses that cost only themselves, and the
// next Put repairs the cell for a live handle and a fresh one. A line
// that no longer names the key it was indexed under is a miss too.
func TestCorruptObjectIsMiss(t *testing.T) {
	req := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantPlain,
	}
	other := req
	other.Variant = core.VariantAuto
	res, err := core.Run(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	// rec is the line a Put writes for req.
	scratch, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := scratch.Put(req, res); err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile(filepath.Join(scratch.Dir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// renamed is rec naming another key, at the same length.
	key := scratch.Key(req)
	renamed := strings.Replace(string(rec), key, strings.Repeat("0", len(key)), 1)
	hits := func(s *Store, r sweep.Request) bool {
		got, ok := s.Get(r)
		return ok && got.Checksum == res.Checksum && got.Cycles == res.Cycles
	}

	for _, corrupt := range []string{
		"{not json\n",
		string(rec[:len(rec)/2]),
		renamed,
	} {
		dir := t.TempDir()
		live, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := live.Put(other, res); err != nil {
			t.Fatal(err)
		}
		if err := live.appendLog([]byte(corrupt)); err != nil {
			t.Fatal(err)
		}
		fresh, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Store{live, fresh} {
			if _, ok := s.Get(req); ok {
				t.Fatalf("corrupt line %.40q served as a hit", corrupt)
			}
			if !hits(s, other) {
				t.Fatalf("corrupt line %.40q lost the record before it", corrupt)
			}
		}
		if err := fresh.Put(req, res); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Store{fresh, live, reopened} {
			if !hits(s, req) {
				t.Fatalf("re-put did not repair corrupt line %.40q", corrupt)
			}
		}
	}

	// Rewrite the log under a live handle so the line it indexed for req
	// names another key: the key check makes it a miss, and a Put
	// repairs it.
	dir := t.TempDir()
	live, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Put(req, res); err != nil {
		t.Fatal(err)
	}
	if !hits(live, req) {
		t.Fatal("put entry misses")
	}
	if err := os.WriteFile(filepath.Join(dir, "results.jsonl"), []byte(renamed), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := live.Get(req); ok {
		t.Fatal("line naming another key served as a hit")
	}
	if err := live.Put(req, res); err != nil {
		t.Fatal(err)
	}
	if !hits(live, req) {
		t.Fatal("re-put did not repair a line naming another key")
	}
}

// TestHalfWrittenLine: a reader can see an append half done. The half
// line is not indexed and the scan does not pass it, so once the write
// completes the same handle serves the record.
func TestHalfWrittenLine(t *testing.T) {
	req := benchRequest()
	res := &core.Result{Checksum: 7, Cycles: 2.5}
	w, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(req, res); err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile(filepath.Join(w.Dir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.appendLog(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(req); ok {
		t.Fatal("half-written line served as a hit")
	}
	if err := s.appendLog(rec[len(rec)/2:]); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(req); !ok || got.Checksum != res.Checksum {
		t.Fatalf("completed line not served (hit %v)", ok)
	}
}

// TestIndexCatalogue: the log is the catalogue — a Put's line names its
// cell in clear text — and a reopened store serves the cell.
func TestIndexCatalogue(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantPlain,
		Options:  core.Options{C: 16, Hoist: true},
	}
	res, err := core.Run(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(req, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var o object
	if bytes.Count(data, []byte("\n")) != 1 || json.Unmarshal(data, &o) != nil {
		t.Fatalf("log after one Put is not one object line:\n%s", data)
	}
	if o.Key != s.Key(req) || o.Salt != s.Salt() || o.Workload != req.Workload.Name ||
		o.Params != req.Workload.Params || o.System != req.System.Name ||
		o.Variant != string(req.Variant) || o.Options != req.Options {
		t.Errorf("log line does not name its cell: %+v", o)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reopened.Get(req); !ok || got.Checksum != res.Checksum {
		t.Fatalf("reopened store does not serve the cell (hit %v)", ok)
	}
}

// TestConcurrentHandles: two handles on one directory, eight goroutines
// each, probing and putting overlapping cells the way sweeps do. Every
// hit is the cell's own result; afterwards both handles serve every
// cell, every line decodes, and the log holds one line per Put.
func TestConcurrentHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const cells, goroutines = 24, 8
	reqs := make([]sweep.Request, cells)
	for i := range reqs {
		reqs[i] = sweep.Request{
			Workload: workloads.Tiny()[0],
			System:   sim.DefaultConfig(),
			Variant:  core.VariantAuto,
			Options:  core.Options{C: int64(i + 1)},
		}
	}
	// The store does not interpret results, so each cell's is made up
	// from the cell's index.
	result := func(i int) *core.Result { return &core.Result{Checksum: int64(i), Cycles: float64(i) + 0.5} }
	served := func(got *core.Result, i int) bool { return got.Checksum == int64(i) && got.Cycles == float64(i)+0.5 }

	var wg sync.WaitGroup
	for _, s := range []*Store{a, b} {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(s *Store, g int) {
				defer wg.Done()
				for j := 0; j < cells; j++ {
					i := (3*g + j) % cells
					got, ok := s.Get(reqs[i])
					if ok && !served(got, i) {
						t.Errorf("cell %d served %+v", i, *got)
					}
					if !ok || j%4 == 0 {
						if err := s.Put(reqs[i], result(i)); err != nil {
							t.Error(err)
						}
					}
				}
			}(s, g)
		}
	}
	wg.Wait()

	for _, s := range []*Store{a, b} {
		for i, r := range reqs {
			if got, ok := s.Get(r); !ok || !served(got, i) {
				t.Errorf("cell %d: hit %v after the writers finished", i, ok)
			}
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	for n, line := range lines {
		var o object
		if err := json.Unmarshal(line, &o); err != nil || o.Key == "" {
			t.Errorf("line %d does not decode (%v): %.60q", n+1, err, line)
		}
	}
	if puts := a.Stats().Puts + b.Stats().Puts; int64(len(lines)) != puts {
		t.Errorf("log has %d lines for %d Puts", len(lines), puts)
	}
}

// TestResumedSweep: interrupting a grid mid-way (simulated by caching
// only a prefix of the cells) still yields a full, bit-identical
// result set on the next run, computing only the missing cells.
func TestResumedSweep(t *testing.T) {
	dir := t.TempDir()
	grid := tinyGrid()
	reqs := grid.Expand()

	plain, err := grid.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	want := emit(t, plain)

	// "Interrupt" after half the cells: persist only that prefix.
	half, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(reqs)/2; i++ {
		if err := half.Put(reqs[i], plain.Outcomes[i].Result); err != nil {
			t.Fatal(err)
		}
	}

	resumed, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	set, err := grid.RunWith(sweep.Runner{Jobs: 2, Cache: resumed})
	if err != nil {
		t.Fatal(err)
	}
	if got := emit(t, set); !bytes.Equal(got, want) {
		t.Fatal("resumed sweep differs from uninterrupted run")
	}
	st := resumed.Stats()
	if st.Hits != int64(len(reqs)/2) || st.Puts != int64(len(reqs)-len(reqs)/2) {
		t.Errorf("resume stats = %+v, want %d hits and %d puts", st, len(reqs)/2, len(reqs)-len(reqs)/2)
	}
}

// FuzzStoreLog feeds arbitrary bytes to the store as its log. Open,
// Get, Put and a second Open must not panic, and whatever the log held
// before it, the Put must be served by a fresh handle.
func FuzzStoreLog(f *testing.F) {
	req := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantAuto,
		Options:  core.Options{C: 16},
	}
	res := &core.Result{Checksum: 42, Cycles: 1.5}
	seed, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := seed.Put(req, res); err != nil {
		f.Fatal(err)
	}
	rec, err := os.ReadFile(filepath.Join(seed.Dir(), "results.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(rec[:len(rec)-9])                                                            // a torn tail
	f.Add([]byte(`{"Result":{"Checksum":7}}` + "\n"))                                  // no Key
	f.Add([]byte(`{"Key":"` + strings.Repeat("a", 1<<20) + `"}` + "\n" + string(rec))) // a line over 1 MiB

	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "results.jsonl"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.Get(req)
		if err := s.Put(req, res); err != nil {
			t.Fatal(err)
		}
		fresh, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := fresh.Get(req); !ok || got.Checksum != res.Checksum || got.Cycles != res.Cycles {
			t.Fatalf("fresh handle does not serve the last Put (hit %v)", ok)
		}
	})
}
