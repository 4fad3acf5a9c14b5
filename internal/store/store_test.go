package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
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

// TestCorruptObjectIsMiss: an unreadable object, or one that names a
// different key, degrades to a miss and is repaired by the next Put.
func TestCorruptObjectIsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   sim.DefaultConfig(),
		Variant:  core.VariantPlain,
	}
	res, err := core.Run(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(req, res); err != nil {
		t.Fatal(err)
	}

	key := s.Key(req)
	path := filepath.Join(s.Dir(), "objects", key[:2], key+".json")
	for _, corrupt := range []string{
		"{not json",
		`{"Key":"deadbeef","Result":{"Checksum":42}}`, // well-formed, wrong key
	} {
		if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(req); ok {
			t.Fatalf("corrupt object %q served as a hit", corrupt)
		}
		if err := s.Put(req, res); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(req); !ok {
			t.Fatalf("re-put did not repair corrupt object %q", corrupt)
		}
	}
}

// TestIndexCatalogue: puts land in index.json and survive reopening.
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
	}
	res, err := core.Run(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(req, res); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.jsonl")); err != nil {
		t.Fatalf("index.jsonl missing: %v", err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	idx := reopened.Index()
	e, ok := idx[s.Key(req)]
	if !ok {
		t.Fatalf("reopened index lacks entry; have %d entries", len(idx))
	}
	if e.Workload != req.Workload.Name || e.Params != req.Workload.Params ||
		e.System != req.System.Name || e.Variant != string(req.Variant) {
		t.Errorf("index entry mismatch: %+v", e)
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
