package bench

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// quickMatrix is the quick-size experiment matrix every figure test
// reads: planned from every figure and run once per process at Jobs 8.
// Under -short it holds only the figures the short suite checks (2, 9
// and 10), which CI runs under the race detector.
var quickMatrix = sync.OnceValues(func() (*matrix, error) {
	figs := []Figure{Fig2, Fig9, Fig10}
	if !testing.Short() {
		var err error
		if figs, err = Select("all", "", ""); err != nil {
			return nil, err
		}
	}
	m, err := plan(Quick, figs)
	if err != nil {
		return nil, err
	}
	return m, m.run(sweep.Runner{Jobs: 8})
})

// quickTables renders figures from the shared quick matrix.
func quickTables(t *testing.T, figs ...Figure) []*Table {
	t.Helper()
	m, err := quickMatrix()
	if err != nil {
		t.Fatal(err)
	}
	tables, err := m.render(Quick, figs)
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// quickTable renders and logs one figure from the shared quick matrix.
func quickTable(t *testing.T, f Figure) *Table {
	t.Helper()
	tbl := quickTables(t, f)[0]
	t.Log("\n" + tbl.String())
	return tbl
}

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

// rowByName finds a table row whose first cell matches (or prefixes).
func rowByName(t *testing.T, tbl *Table, name string) []string {
	t.Helper()
	for _, r := range tbl.Rows {
		if r[0] == name || strings.HasPrefix(r[0], name) {
			return r
		}
	}
	t.Fatalf("no row %q in %s", name, tbl.Title)
	return nil
}

func TestTableString(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Note:    "a note",
	}
	tbl.AddRow("x", "1.00")
	s := tbl.String()
	for _, want := range []string{"demo", "long-column", "x", "1.00", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	// Stringifying twice must not corrupt the header.
	if tbl.String() != s {
		t.Error("Table.String is not idempotent")
	}
}

func TestFig2Shape(t *testing.T) {
	tbl := quickTable(t, Fig2)
	intuitive := parseCell(t, rowByName(t, tbl, "Intuitive")[1])
	optimal := parseCell(t, rowByName(t, tbl, "Optimal")[1])
	tooBig := parseCell(t, rowByName(t, tbl, "Offset too big")[1])
	if optimal <= 1.0 {
		t.Errorf("optimal speedup %.2f, want > 1", optimal)
	}
	if optimal < intuitive {
		t.Errorf("optimal (%.2f) must be at least intuitive (%.2f)", optimal, intuitive)
	}
	if tooBig > optimal {
		t.Errorf("too-big offset (%.2f) should not beat optimal (%.2f)", tooBig, optimal)
	}
}

// skipInShort gates the figure-regeneration tests, which each run the
// quick workload suite across several machine configurations.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("figure regeneration")
	}
}

func TestFig4HaswellShape(t *testing.T) {
	skipInShort(t)
	tbl := quickTable(t, Fig4("Haswell"))
	g := rowByName(t, tbl, "Geomean")
	auto := parseCell(t, g[1])
	manual := parseCell(t, g[2])
	if auto <= 1.0 {
		t.Errorf("Haswell auto geomean %.2f, want > 1 (paper: 1.3)", auto)
	}
	if manual < auto*0.9 {
		t.Errorf("manual (%.2f) should be >= auto (%.2f)", manual, auto)
	}
}

func TestFig4PhiICCColumn(t *testing.T) {
	skipInShort(t)
	tbl := quickTable(t, Fig4("XeonPhi"))
	if len(tbl.Columns) != 4 {
		t.Fatalf("Phi table needs the ICC column: %v", tbl.Columns)
	}
	// ICC must miss RA (hash pattern): its speedup stays ~1, below auto.
	ra := rowByName(t, tbl, "RA")
	icc := parseCell(t, ra[1])
	auto := parseCell(t, ra[2])
	if icc > auto {
		t.Errorf("ICC (%.2f) should not beat the full pass (%.2f) on RA", icc, auto)
	}
	if icc > 1.1 {
		t.Errorf("ICC speedup on RA = %.2f; the restricted pass must miss the hash pattern", icc)
	}
}

// TestFig4UnknownSystem: unknown names fail while the figures are
// planned, before anything is simulated.
func TestFig4UnknownSystem(t *testing.T) {
	for _, f := range []Figure{Fig4("M4"), FigSWHW("M4"), Fig6("nope")} {
		if _, err := (Suite{Q: Quick}).Run(f); err == nil {
			t.Error("unknown system or benchmark accepted")
		}
	}
	if _, err := Select("fig99", "", ""); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFig9Shape(t *testing.T) {
	tbl := quickTable(t, Fig9)
	one := rowByName(t, tbl, "1")
	four := rowByName(t, tbl, "4")
	base1 := parseCell(t, one[1])
	pf1 := parseCell(t, one[2])
	base4 := parseCell(t, four[1])
	pf4 := parseCell(t, four[2])
	if base1 < 0.99 || base1 > 1.01 {
		t.Errorf("1-core baseline should normalize to 1.0, got %.2f", base1)
	}
	if pf1 <= base1 {
		t.Errorf("prefetching should win at 1 core: %.2f vs %.2f", pf1, base1)
	}
	if base4 >= base1 {
		t.Errorf("bus contention should reduce throughput: %.2f at 4 cores vs %.2f", base4, base1)
	}
	if pf4 <= base4 {
		t.Errorf("prefetching should still win at 4 cores: %.2f vs %.2f", pf4, base4)
	}
}

func TestFig10Shape(t *testing.T) {
	tbl := quickTable(t, Fig10)
	if len(tbl.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		small := parseCell(t, r[1])
		huge := parseCell(t, r[2])
		if small <= 0 || huge <= 0 {
			t.Errorf("%s: non-positive speedups %v", r[0], r[1:])
		}
	}
}

func TestFig6QuickSingle(t *testing.T) {
	skipInShort(t)
	tbl := quickTable(t, Fig6("IS"))
	if len(tbl.Rows) != 4 {
		t.Fatalf("want 4 systems, got %d rows", len(tbl.Rows))
	}
	if len(tbl.Rows[0]) != len(Fig6Distances)+1 {
		t.Fatalf("row width %d, want %d", len(tbl.Rows[0]), len(Fig6Distances)+1)
	}
}

func TestFig7QuickShape(t *testing.T) {
	skipInShort(t)
	tbl := quickTable(t, Fig7)
	// On the in-order systems deeper staggering must help beyond depth 1.
	for _, sys := range []string{"A53", "XeonPhi"} {
		r := rowByName(t, tbl, sys)
		d1 := parseCell(t, r[1])
		d3 := parseCell(t, r[3])
		if d3 < d1 {
			t.Errorf("%s: depth 3 (%.2f) should beat depth 1 (%.2f)", sys, d3, d1)
		}
	}
}

func TestFig8QuickShape(t *testing.T) {
	skipInShort(t)
	tbl := quickTable(t, Fig8)
	is := parseCell(t, rowByName(t, tbl, "IS")[1])
	g500 := parseCell(t, rowByName(t, tbl, "G500")[1])
	if is <= 0 {
		t.Errorf("IS extra instructions = %.1f%%, want positive", is)
	}
	if g500 >= is {
		t.Errorf("G500 (%.1f%%) should add fewer instructions than IS (%.1f%%): prefetches are per-vertex, not per-edge", g500, is)
	}
}

func TestFig5QuickShape(t *testing.T) {
	skipInShort(t)
	tbl := quickTable(t, Fig5)
	g := rowByName(t, tbl, "Geomean")
	only := parseCell(t, g[1])
	both := parseCell(t, g[2])
	if both < only*0.95 {
		t.Errorf("indirect+stride (%.2f) should not lose to indirect-only (%.2f)", both, only)
	}
}

func TestRunAllQuick(t *testing.T) {
	skipInShort(t)
	figs, err := Select("all", "", "")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tbl := range quickTables(t, figs...) {
		sb.WriteString(tbl.String())
	}
	out := sb.String()
	for _, want := range []string{"Figure 2", "Figure 4", "Figure 5", "Figure 6",
		"Figure 7", "Figure 8", "Figure 9", "Figure 10", "SW vs HW", "Core models", "Look-ahead"} {
		if !strings.Contains(out, want) {
			t.Errorf("-exp all output missing %q", want)
		}
	}
}

// TestFigSWHWShape pins the software-vs-hardware comparison to the
// paper's headline relations on the in-order machines. Its
// worker-count invariance is TestMatrixJobsInvariant's.
func TestFigSWHWShape(t *testing.T) {
	skipInShort(t)
	// Geomean-row column indices (after the benchmark name).
	const (
		colSW     = 1 // auto software prefetch, no hardware
		colStride = 2
		colGHB    = 4
		colIMP    = 6
		colIMPSW  = 7
	)
	tbl := quickTable(t, FigSWHW("A53"))

	g := rowByName(t, tbl, "Geomean")
	sw := parseCell(t, g[colSW])
	for _, hw := range []struct {
		name string
		col  int
	}{{"stride", colStride}, {"ghb", colGHB}, {"imp", colIMP}} {
		if got := parseCell(t, g[hw.col]); got >= sw {
			t.Errorf("A53: hardware %s alone (%.2f) should not beat auto software prefetch (%.2f) on an in-order core",
				hw.name, got, sw)
		}
	}
	if best := parseCell(t, g[colIMPSW]); best < sw {
		t.Errorf("A53: IMP+software (%.2f) should compose at least as well as software alone (%.2f)", best, sw)
	}

	// IMP must beat the stride streamer on an indirect workload — the
	// A[B[i]] pattern it exists to cover (CG's a[col[j]]).
	cg := rowByName(t, tbl, "CG")
	if imp, stride := parseCell(t, cg[colIMP]), parseCell(t, cg[colStride]); imp <= stride {
		t.Errorf("CG: IMP (%.2f) should beat the stride streamer (%.2f)", imp, stride)
	}
}

// TestFigCoresShape pins the core-model sensitivity study to the
// paper's central observation: an in-order core, unable to overlap
// misses itself, gains far more from software prefetch than an
// out-of-order window that already extracts memory-level parallelism.
// Its worker-count invariance is TestMatrixJobsInvariant's.
func TestFigCoresShape(t *testing.T) {
	skipInShort(t)
	// Column indices follow sim.CoreModels() order after the name.
	const (
		colInterval = 1
		colOoO      = 2
		colInOrder  = 3
	)
	tbl := quickTable(t, FigCores)

	g := rowByName(t, tbl, "Geomean")
	interval := parseCell(t, g[colInterval])
	ooo := parseCell(t, g[colOoO])
	inorder := parseCell(t, g[colInOrder])
	if inorder <= ooo*1.2 {
		t.Errorf("in-order geomean speedup (%.2f) should dominate out-of-order (%.2f)", inorder, ooo)
	}
	if inorder <= interval {
		t.Errorf("in-order geomean speedup (%.2f) should exceed the interval model's (%.2f)", inorder, interval)
	}
	// The stride benchmark is where the gap is starkest: the OoO window
	// overlaps its independent misses with no help at all.
	is := rowByName(t, tbl, "IS")
	if in, oo := parseCell(t, is[colInOrder]), parseCell(t, is[colOoO]); in <= oo*2 {
		t.Errorf("IS: in-order speedup (%.2f) should be a multiple of out-of-order (%.2f)", in, oo)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Errorf("geomean(2,8) = %v, want 4", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
	if g := geomean([]float64{-1, 0}); g != 0 {
		t.Errorf("geomean of non-positives = %v", g)
	}
}

func TestWorkloadByName(t *testing.T) {
	if workloadByName(Quick, "HJ-8") == nil {
		t.Error("HJ-8 not found")
	}
	if workloadByName(Quick, "nope") != nil {
		t.Error("bogus name resolved")
	}
}

func TestTableCSVAndMarkdown(t *testing.T) {
	tbl := &Table{Title: "t", Columns: []string{"a", "b"}}
	tbl.AddRow("x,y", "1.00")
	tbl.AddRow("plain", "2.00")
	csv := tbl.CSV()
	if !strings.Contains(csv, "\"x,y\",1.00") {
		t.Errorf("CSV escaping wrong:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| --- | --- |") {
		t.Errorf("markdown format wrong:\n%s", md)
	}
}

// TestLookaheadSensitivityShape pins the tuner-built look-ahead figure
// to the paper's qualitative shape on the indirect-heavy workloads:
// the tuned optimum c* strictly beats both the smallest and the
// largest look-ahead (too small arrives late, too big evicts early),
// on both an in-order (A53) and an out-of-order (Haswell) machine.
// Its worker-count invariance is TestMatrixJobsInvariant's.
func TestLookaheadSensitivityShape(t *testing.T) {
	skipInShort(t)
	tbl := quickTable(t, FigLookahead("IS,RA", "A53,Haswell"))

	if len(tbl.Rows) != 4 {
		t.Fatalf("want 4 workload x system rows, got %d", len(tbl.Rows))
	}
	last := len(tbl.Columns) - 1 // "best" speedup; last-1 is "best c"
	for _, r := range tbl.Rows {
		name := r[0] + "/" + r[1]
		smallest := parseCell(t, r[2])
		largest := parseCell(t, r[last-2])
		best := parseCell(t, r[last])
		if !(best > smallest && best > largest) {
			t.Errorf("%s: optimum %.2f not strictly above endpoints %.2f / %.2f",
				name, best, smallest, largest)
		}
		bestC := parseCell(t, r[last-1])
		if bestC <= 1 || bestC >= 1024 {
			t.Errorf("%s: best c = %v is not interior to the ladder", name, bestC)
		}
	}
}

// TestMatrixJobsInvariant: results never depend on the worker count.
// The cells of the mechanisms most exposed to scheduling run again
// serially and must equal the shared run at Jobs 8 field for field:
// IMP's memory peek (the A53 swhw figure), every core model (cores)
// and the tuner's look-ahead ladder (lookahead).
func TestMatrixJobsInvariant(t *testing.T) {
	skipInShort(t)
	shared, err := quickMatrix()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := plan(Quick, []Figure{FigSWHW("A53"), FigCores, FigLookahead("IS,RA", "A53,Haswell")})
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.run(sweep.Runner{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	for i, req := range serial.reqs {
		j, ok := shared.at[fleet.KeyOf(req)]
		if !ok {
			t.Fatalf("%s/%s/%s: not in the shared matrix", req.Workload.Name, req.System.Name, req.Variant)
		}
		got, want := *serial.res[i], *shared.res[j]
		got.Pass, want.Pass = nil, nil // each run's pass report points into its own IR
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s/%s %+v: jobs=1 %+v, jobs=8 %+v",
				req.Workload.Name, req.System.Name, req.Variant, req.Options, got, want)
		}
	}
	t.Logf("%d cells identical at jobs 1 and 8", len(serial.reqs))
}

// TestQuickTablesGolden: every table of `swpfbench -quick -exp all`,
// rendered from the shared matrix, is byte-identical to
// testdata/quick-all.txt. The tables are pinned on amd64 only, because
// Go may fuse multiply-adds elsewhere and move a rounded digit. After
// a deliberate statistics change, regenerate the file with
//
//	go run ./cmd/swpfbench -quick -exp all > internal/bench/testdata/quick-all.txt
func TestQuickTablesGolden(t *testing.T) {
	skipInShort(t)
	if runtime.GOARCH != "amd64" {
		t.Skipf("tables are pinned on amd64; this is %s", runtime.GOARCH)
	}
	data, err := os.ReadFile("testdata/quick-all.txt")
	if err != nil {
		t.Fatal(err)
	}
	// Tables are printed one after another, each followed by a blank
	// line; no table contains one.
	want := strings.Split(strings.TrimSuffix(string(data), "\n\n"), "\n\n")
	figs, err := Select("all", "", "")
	if err != nil {
		t.Fatal(err)
	}
	got := quickTables(t, figs...)
	if len(got) != len(want) {
		t.Fatalf("%d tables, testdata has %d", len(got), len(want))
	}
	for i, tbl := range got {
		if s := strings.TrimSuffix(tbl.String(), "\n"); s != want[i] {
			t.Errorf("table %d differs from testdata:\ngot:\n%s\nwant:\n%s", i, s, want[i])
		}
	}
}

// servedCache answers cells from the shared quick matrix and notes
// every cell looked up more than once.
type servedCache struct {
	m            *matrix
	seen         map[string]bool
	dups, missed []sweep.Request
}

func (c *servedCache) Get(r sweep.Request) (*core.Result, bool) {
	k := fleet.KeyOf(r)
	if c.seen[k] {
		c.dups = append(c.dups, r)
	}
	c.seen[k] = true
	i, ok := c.m.at[k]
	if !ok {
		c.missed = append(c.missed, r)
		return nil, false
	}
	return c.m.res[i], true
}

func (c *servedCache) Put(sweep.Request, *core.Result) error { return nil }

// TestSuiteRunOneSweep: -exp all runs as one deduplicated sweep.
// Served from the shared matrix, Suite.Run looks up every cell exactly
// once, so no two of its requests share a fleet.KeyOf and no figure
// runs a sweep of its own; the matrix holds at most 654 cells.
func TestSuiteRunOneSweep(t *testing.T) {
	skipInShort(t)
	m, err := quickMatrix()
	if err != nil {
		t.Fatal(err)
	}
	figs, err := Select("all", "", "")
	if err != nil {
		t.Fatal(err)
	}
	c := &servedCache{m: m, seen: make(map[string]bool)}
	tables, err := Suite{Q: Quick, Cache: c}.Run(figs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range c.missed {
		t.Errorf("%s/%s/%s %+v is not in the shared matrix", r.Workload.Name, r.System.Name, r.Variant, r.Options)
	}
	for _, r := range c.dups {
		t.Errorf("%s/%s/%s %+v looked up again", r.Workload.Name, r.System.Name, r.Variant, r.Options)
	}
	if n := len(c.seen); n == 0 || n > 654 {
		t.Errorf("-exp all ran %d cells, want 1..654", n)
	}
	t.Logf("-exp all: %d cells in one sweep", len(c.seen))
	for i, tbl := range quickTables(t, figs...) {
		if tables[i].String() != tbl.String() {
			t.Errorf("Suite.Run and the shared matrix disagree on %q", tbl.Title)
		}
	}
}

// TestSelect: every -exp names its figures in print order, "all"
// concatenates every experiment and ignores -system and -bench, and
// the restrictions narrow fig4, fig6, swhw and lookahead. The figures
// read placeholder results, so nothing is simulated.
func TestSelect(t *testing.T) {
	placeholder := func(*workloads.Workload, *sim.Config, core.Variant, core.Options) *core.Result {
		return &core.Result{}
	}
	tables := func(exp, system, bench string) []*Table {
		t.Helper()
		figs, err := Select(exp, system, bench)
		if err != nil {
			t.Fatal(err)
		}
		var out []*Table
		for _, f := range figs {
			tbl, err := f(Quick, placeholder)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tbl)
		}
		return out
	}
	want := []string{
		"Figure 2:",
		"Figure 4: speedup on Haswell", "Figure 4: speedup on XeonPhi", "Figure 4: speedup on A57", "Figure 4: speedup on A53",
		"Figure 5:",
		"distance, IS", "distance, CG", "distance, RA", "distance, HJ-2",
		"Figure 7:", "Figure 8:", "Figure 9:", "Figure 10:",
		"baseline, Haswell", "baseline, XeonPhi", "baseline, A57", "baseline, A53",
		"Core models:", "Look-ahead sensitivity",
	}
	all := tables("all", "A53", "CG")
	if len(all) != len(want) {
		t.Fatalf("-exp all selects %d figures, want %d", len(all), len(want))
	}
	for i, tbl := range all {
		if !strings.Contains(tbl.Title, want[i]) {
			t.Errorf("-exp all figure %d is %q, want %q", i, tbl.Title, want[i])
		}
	}
	var each []string
	for _, e := range experiments {
		for _, tbl := range tables(e, "", "") {
			each = append(each, tbl.Title)
		}
	}
	if fmt.Sprint(each) != fmt.Sprint(titles(all)) {
		t.Errorf("-exp all is not every experiment in order:\n%v\n%v", titles(all), each)
	}

	for _, c := range []struct {
		exp, system, bench, title string
		rows                      int
	}{
		{"fig4", "XeonPhi", "", "Figure 4: speedup on XeonPhi (c=64)", 8},
		{"fig6", "", "CG", "Figure 6: speedup vs look-ahead distance, CG", 4},
		{"swhw", "A53", "", "SW vs HW prefetching: speedup over no-prefetch baseline, A53 (c=64)", 8},
		{"lookahead", "A53,Haswell", "IS,RA", "Look-ahead sensitivity: tuned speedup vs c (auto)", 4},
	} {
		got := tables(c.exp, c.system, c.bench)
		if len(got) != 1 || got[0].Title != c.title || len(got[0].Rows) != c.rows {
			t.Errorf("-exp %s -system %q -bench %q: %v, want one %d-row %q",
				c.exp, c.system, c.bench, titles(got), c.rows, c.title)
		}
	}
}

func titles(tables []*Table) []string {
	var out []string
	for _, tbl := range tables {
		out = append(out, tbl.Title)
	}
	return out
}

// TestRenderRejectsResultDependentCells: a figure that decides from a
// result which cell to read next fails to render, instead of reading a
// cell that never ran.
func TestRenderRejectsResultDependentCells(t *testing.T) {
	w, cfg := workloads.Tiny()[0], sim.DefaultConfig()
	fig := func(q Quality, get Lookup) (*Table, error) {
		if get(w, cfg, core.VariantPlain, core.Options{}).Cycles > 0 {
			get(w, cfg, core.VariantAuto, core.Options{})
		}
		return &Table{}, nil
	}
	m, err := plan(Quick, []Figure{fig})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.reqs) != 1 {
		t.Fatalf("planned %d cells, want the one read before any result", len(m.reqs))
	}
	m.res = []*core.Result{{Cycles: 1}} // as if run
	if _, err := m.render(Quick, []Figure{fig}); err == nil || !strings.Contains(err.Error(), "must not depend on results") {
		t.Errorf("render error = %v, want a result-dependent cell", err)
	}
}
