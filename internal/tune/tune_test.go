package tune

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("tuning search: skipped in -short")
	}
}

// TestSpecSpace pins spec resolution: the defaults every surface
// inherits, and the one-place validation contract.
func TestSpecSpace(t *testing.T) {
	sp := Spec{}
	sp.Quality = "tiny"
	space, err := sp.Space()
	if err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if len(space.Workloads) == 0 || len(space.Systems) != 4 {
		t.Errorf("defaults: %d workloads, %d systems", len(space.Workloads), len(space.Systems))
	}
	if string(space.Variant) != "auto" || space.Strategy != StrategyExhaustive {
		t.Errorf("defaults: variant %q strategy %q", space.Variant, space.Strategy)
	}
	if len(space.Cs) != len(DefaultCs) || space.Cs[0] != 1 || space.Cs[len(space.Cs)-1] != 1024 {
		t.Errorf("default cs = %v", space.Cs)
	}
	if space.Size() != len(DefaultCs) {
		t.Errorf("default size = %d", space.Size())
	}

	// Ladders sort and dedupe; selections dedupe.
	sp = Spec{Cs: "64, 1,64,8", Depths: "2,0", Hoists: "true,true"}
	sp.Quality = "tiny"
	sp.HWPF = "none,none"
	space, err = sp.Space()
	if err != nil {
		t.Fatal(err)
	}
	if len(space.Cs) != 3 || space.Cs[0] != 1 || space.Cs[2] != 64 {
		t.Errorf("cs = %v", space.Cs)
	}
	if len(space.Depths) != 2 || space.Depths[0] != 0 {
		t.Errorf("depths = %v", space.Depths)
	}
	if len(space.Hoists) != 1 || !space.Hoists[0] {
		t.Errorf("hoists = %v", space.Hoists)
	}
	if len(space.HWPFs) != 1 {
		t.Errorf("hwpfs = %v", space.HWPFs)
	}

	for name, tc := range map[string]struct {
		spec Spec
		want string
	}{
		"fixed c":      {Spec{Spec: sweep.Spec{Quality: "tiny", C: 16}}, `"c", "depth" and "hoist" are searched`},
		"fixed exec":   {Spec{Spec: sweep.Spec{Quality: "tiny", Exec: "replay"}}, `"exec" is not a tuned axis`},
		"fixed core":   {Spec{Spec: sweep.Spec{Quality: "tiny", Core: "ooo"}}, `"core" is not a tuned axis`},
		"two variants": {Spec{Spec: sweep.Spec{Quality: "tiny", Variants: "auto,manual"}}, "exactly one variant"},
		"plain":        {Spec{Spec: sweep.Spec{Quality: "tiny", Variants: "plain"}}, "baseline"},
		"bad variant":  {Spec{Spec: sweep.Spec{Quality: "tiny", Variants: "jit"}}, `sweep: unknown variant "jit"`},
		"bad strategy": {Spec{Spec: sweep.Spec{Quality: "tiny"}, Strategy: "anneal"}, `tune: unknown strategy "anneal" (have exhaustive, hillclimb)`},
		"bad hoist":    {Spec{Spec: sweep.Spec{Quality: "tiny"}, Hoists: "maybe"}, `tune: unknown hoist "maybe" (have false, true)`},
		"bad ladder":   {Spec{Spec: sweep.Spec{Quality: "tiny"}, Cs: "64,x"}, `tune: bad look-ahead "x"`},
		"zero c":       {Spec{Spec: sweep.Spec{Quality: "tiny"}, Cs: "0,64"}, `tune: bad look-ahead "0"`},
		"bad quality":  {Spec{Spec: sweep.Spec{Quality: "huge"}}, `unknown quality "huge"`},
		"bad hwpf":     {Spec{Spec: sweep.Spec{Quality: "tiny", HWPF: "warp"}}, "unknown hardware prefetcher"},
	} {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want %q", name, err, tc.want)
		}
	}
}

// batchRunner fabricates results without simulating and records the
// size of every evaluation batch. Cycles depend on every searched knob,
// so hillclimb walks each axis.
type batchRunner struct{ batches []int }

func (b *batchRunner) Execute(reqs []sweep.Request) (*sweep.ResultSet, error) {
	b.batches = append(b.batches, len(reqs))
	set := &sweep.ResultSet{Outcomes: make([]sweep.Outcome, len(reqs))}
	for i, r := range reqs {
		cycles := 1000.0
		if r.Variant != core.VariantPlain {
			o := r.Options
			cycles = 500 + math.Abs(float64(o.C-32)) + 7*float64(o.Depth) + float64(len(r.System.HWPrefetcherName()))
			if o.Hoist {
				cycles -= 3
			}
		}
		set.Outcomes[i] = sweep.Outcome{Request: r, Result: &core.Result{Cycles: cycles}}
	}
	return set, nil
}

// TestMaxBatch: MaxBatch is exhaustive's one batch exactly and bounds
// every hillclimb batch, and it saturates instead of overflowing.
func TestMaxBatch(t *testing.T) {
	sp := tinySpec("IS,CG", "A53,Haswell")
	sp.HWPF = "default,none,stride"
	sp.Cs, sp.Depths, sp.Hoists = "8,16,32,64", "0,1,2", "false,true"
	for _, strategy := range []string{"exhaustive", "hillclimb"} {
		sp.Strategy = strategy
		space, err := sp.Space()
		if err != nil {
			t.Fatal(err)
		}
		var b batchRunner
		if _, err := (Tuner{Runner: &b}).Run(sp); err != nil {
			t.Fatal(err)
		}
		largest := slices.Max(b.batches)
		if largest > space.MaxBatch() || (strategy == "exhaustive" && largest != space.MaxBatch()) {
			t.Errorf("%s: batches %v, MaxBatch %d", strategy, b.batches, space.MaxBatch())
		}
	}
	huge := make([]int64, 1<<16)
	space := &Space{Workloads: make([]*workloads.Workload, 1<<16), Systems: make([]*sim.Config, 1<<16),
		HWPFs: []string{"none"}, Cs: huge, Depths: make([]int, 1<<16), Hoists: []bool{false}, Strategy: StrategyExhaustive}
	if got := space.MaxBatch(); got != math.MaxInt {
		t.Errorf("2^64 candidates: MaxBatch = %d, want math.MaxInt", got)
	}
}

func tinySpec(workloads, systems string) Spec {
	sp := Spec{}
	sp.Quality = "tiny"
	sp.Workloads = workloads
	sp.Systems = systems
	return sp
}

func runTune(t *testing.T, sp Spec, jobs int, cache sweep.Cache) *Report {
	t.Helper()
	rep, err := Tuner{Runner: sweep.Runner{Jobs: jobs, Cache: cache}}.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func renderJSON(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTuneExhaustive pins the search result on one pair: a full
// report, an interior optimum (the paper's look-ahead shape), and
// byte-identical output for any worker count.
func TestTuneExhaustive(t *testing.T) {
	skipInShort(t)
	sp := tinySpec("IS", "A53")
	rep := runTune(t, sp, 1, nil)
	if len(rep.Results) != 1 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	res := rep.Results[0]
	if res.Workload != "IS" || res.System != "A53" || rep.Variant != "auto" || rep.Strategy != "exhaustive" {
		t.Errorf("header: %+v / %+v", rep, res)
	}
	if res.Evals != len(DefaultCs) || len(res.Curve) != len(DefaultCs) {
		t.Errorf("evals = %d, curve = %d", res.Evals, len(res.Curve))
	}
	if res.Baseline <= 0 {
		t.Errorf("baseline = %v", res.Baseline)
	}
	first, last := res.Curve[0], res.Curve[len(res.Curve)-1]
	if !(res.Speedup > first.Speedup && res.Speedup > last.Speedup) {
		t.Errorf("optimum not interior: best %v@c=%d, ends %v/%v",
			res.Speedup, res.Best.C, first.Speedup, last.Speedup)
	}
	if res.Best.C <= first.C || res.Best.C >= last.C {
		t.Errorf("best c = %d not interior to [%d,%d]", res.Best.C, first.C, last.C)
	}

	for _, jobs := range []int{2, 8} {
		again := runTune(t, sp, jobs, nil)
		if renderJSON(t, again) != renderJSON(t, rep) {
			t.Errorf("jobs=%d report differs from serial", jobs)
		}
	}

	var csvBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	out := csvBuf.String()
	if !strings.HasPrefix(out, "workload,system,variant,strategy,hwpf,depth,hoist,c,speedup,best\n") {
		t.Errorf("csv header: %q", out)
	}
	if n := strings.Count(out, ",true\n"); n != 1 {
		t.Errorf("csv best flags = %d\n%s", n, out)
	}
}

// TestTuneHillclimb pins the refiner: deterministic across worker
// counts, and on a single-axis space it lands exactly where
// exhaustive does (the first coordinate round explores the whole
// look-ahead ladder).
func TestTuneHillclimb(t *testing.T) {
	skipInShort(t)
	sp := tinySpec("RA", "Haswell")
	sp.Strategy = "hillclimb"
	rep := runTune(t, sp, 1, nil)
	if rep.Strategy != "hillclimb" {
		t.Errorf("strategy = %q", rep.Strategy)
	}
	again := runTune(t, sp, 8, nil)
	if renderJSON(t, again) != renderJSON(t, rep) {
		t.Error("jobs=8 report differs from serial")
	}

	ex := sp
	ex.Strategy = "exhaustive"
	full := runTune(t, ex, 8, nil)
	hres, xres := rep.Results[0], full.Results[0]
	if hres.Best != xres.Best || hres.Speedup != xres.Speedup {
		t.Errorf("hillclimb best %+v (%v) != exhaustive best %+v (%v)",
			hres.Best, hres.Speedup, xres.Best, xres.Speedup)
	}
	if len(hres.Curve) != len(xres.Curve) {
		t.Fatalf("curve lengths: %d vs %d", len(hres.Curve), len(xres.Curve))
	}
	for i := range hres.Curve {
		if hres.Curve[i] != xres.Curve[i] {
			t.Errorf("curve[%d]: %+v vs %+v", i, hres.Curve[i], xres.Curve[i])
		}
	}
}

// TestTuneWarmStore pins the memoization contract: re-tuning a
// >=500-configuration search against a warm store performs zero store
// writes and zero fresh simulations, and reproduces the cold report
// byte for byte.
func TestTuneWarmStore(t *testing.T) {
	skipInShort(t)
	dir := t.TempDir()
	sp := tinySpec("IS,RA", "A53,Haswell")
	sp.HWPF = "default,none,stride,nextline"
	sp.Depths = "0,1"
	sp.Hoists = "false,true"

	space, err := sp.Space()
	if err != nil {
		t.Fatal(err)
	}
	if total := space.Size() * len(space.Workloads) * len(space.Systems); total < 500 {
		t.Fatalf("search too small to prove the contract: %d configs", total)
	}

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := runTune(t, sp, 8, cold)
	if cold.Stats().Puts == 0 {
		t.Fatal("cold tune stored nothing")
	}

	warm, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := interp.Runs()
	again := runTune(t, sp, 8, warm)
	if d := interp.Runs() - before; d != 0 {
		t.Errorf("warm re-tune simulated %d cells", d)
	}
	if st := warm.Stats(); st.Puts != 0 || st.Misses != 0 {
		t.Errorf("warm re-tune store traffic: %+v", st)
	}
	if renderJSON(t, again) != renderJSON(t, rep) {
		t.Error("warm report differs from cold")
	}
}

func benchSpec() Spec {
	sp := Spec{}
	sp.Quality = "tiny"
	sp.Workloads = "IS"
	sp.Systems = "A53"
	return sp
}

// BenchmarkTuneCold measures an uncached default-ladder search on one
// pair (11 candidates + 1 baseline, simulated every iteration).
func BenchmarkTuneCold(b *testing.B) {
	sp := benchSpec()
	for b.Loop() {
		if _, err := (Tuner{Runner: sweep.Runner{Jobs: 1}}).Run(sp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTuneWarm measures the same search served entirely from a
// warm store — the memoized re-tune path.
func BenchmarkTuneWarm(b *testing.B) {
	sp := benchSpec()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := (Tuner{Runner: sweep.Runner{Jobs: 1, Cache: st}}).Run(sp); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for b.Loop() {
		if _, err := (Tuner{Runner: sweep.Runner{Jobs: 1, Cache: st}}).Run(sp); err != nil {
			b.Fatal(err)
		}
	}
}
