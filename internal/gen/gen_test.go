package gen

import (
	"strings"
	"testing"

	"repro/internal/hwpf"
	"repro/internal/interp"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/uarch"
)

// familySize is the acceptance bar: the generator must produce at
// least this many distinct verifier-accepted kernels from one seed.
const familySize = 200

// TestFamilyDistinctAndVerified: a fixed seed yields familySize
// kernels with distinct canonical parameters, every one of which the
// verifier accepts, and the family covers real structural diversity
// (many distinct IR texts, every shape, both bodies).
func TestFamilyDistinctAndVerified(t *testing.T) {
	kernels := Family(1, familySize)
	if len(kernels) != familySize {
		t.Fatalf("Family(1, %d) returned %d kernels", familySize, len(kernels))
	}
	canon := map[string]bool{}
	texts := map[string]bool{}
	shapes := map[Shape]int{}
	bodies := map[Body]int{}
	for _, k := range kernels {
		c := k.P.Canonical()
		if canon[c] {
			t.Fatalf("duplicate canonical params: %s", c)
		}
		canon[c] = true
		mod := k.Build()
		if err := mod.Verify(); err != nil {
			t.Fatalf("kernel %s does not verify: %v", c, err)
		}
		texts[mod.String()] = true
		shapes[k.P.Shape]++
		bodies[k.P.Body]++
	}
	if len(texts) < familySize/4 {
		t.Errorf("only %d distinct IR texts across %d kernels", len(texts), familySize)
	}
	for s := ShapeFlat; s < numShapes; s++ {
		if shapes[s] == 0 {
			t.Errorf("family never drew shape %s", s)
		}
	}
	for b := BodyReduce; b < numBodies; b++ {
		if bodies[b] == 0 {
			t.Errorf("family never drew body %s", b)
		}
	}
}

// TestGenerateDeterministic: equal parameters produce identical
// modules, inputs and checksums, and the family draw is stable.
func TestGenerateDeterministic(t *testing.T) {
	p := Params{Seed: 42, Shape: ShapeFlat, Rows: 32, Indir: 2, Stride: 1, Hash: true, Extra: 1}
	a, b := Generate(p), Generate(p)
	if a.Want != b.Want {
		t.Errorf("checksums differ: %d vs %d", a.Want, b.Want)
	}
	if a.Build().String() != b.Build().String() {
		t.Error("modules differ for equal params")
	}
	f1, f2 := Family(7, 20), Family(7, 20)
	for i := range f1 {
		if f1[i].P.Canonical() != f2[i].P.Canonical() {
			t.Fatalf("family draw %d unstable: %s vs %s", i, f1[i].P.Canonical(), f2[i].P.Canonical())
		}
	}
}

// TestPlainRunMatchesReference: the interpreter reproduces the pure-Go
// model's checksum on untransformed kernels of every shape.
func TestPlainRunMatchesReference(t *testing.T) {
	for _, k := range Family(3, 24) {
		mach := interp.New(k.Build(), uarch.A53())
		mach.MaxInstrs = 1 << 24
		got, err := k.Exec(mach)
		if err != nil {
			t.Fatalf("%s: %v", k.P.Canonical(), err)
		}
		if got != k.Want {
			t.Errorf("%s: checksum %d, reference %d", k.P.Canonical(), got, k.Want)
		}
	}
}

// TestFamilyExercisesThePass guards generator drift: a healthy family
// must contain kernels the pass transforms (emitted prefetches),
// kernels it hoists (§4.6, via the chase shape), and kernels it
// rejects — otherwise the differential oracle is vacuous.
func TestFamilyExercisesThePass(t *testing.T) {
	var emitted, hoisted, rejected int
	for _, k := range Family(1, familySize) {
		mod := k.Build()
		res := prefetch.Run(mod, prefetch.Options{C: 64, Hoist: true})
		for _, r := range res {
			if len(r.Emitted) > 0 {
				emitted++
			}
			if len(r.Rejections) > 0 {
				rejected++
			}
			for _, e := range r.Emitted {
				if e.Hoisted {
					hoisted++
					break
				}
			}
		}
	}
	if emitted < familySize/3 {
		t.Errorf("pass emitted prefetches for only %d/%d kernels", emitted, familySize)
	}
	if hoisted == 0 {
		t.Error("no generated kernel exercised §4.6 hoisting")
	}
	if rejected == 0 {
		t.Error("no generated kernel exercised a rejection path")
	}
}

// TestParamsFromRawAlwaysValid: any raw byte vector names a kernel the
// verifier accepts — the contract the fuzz entry point relies on.
func TestParamsFromRawAlwaysValid(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 64; i++ {
		raw := make([]byte, r.Intn(16))
		for j := range raw {
			raw[j] = byte(r.Next())
		}
		p := ParamsFromRaw(r.Next(), raw)
		if err := Generate(p).Build().Verify(); err != nil {
			t.Fatalf("raw %v: %v", raw, err)
		}
	}
}

// TestOracleFamily is the acceptance check: the differential oracle
// passes on every kernel of the fixed-seed family — interpreter
// bit-identity with and without the pass at every variant, simulator
// invariants across machines x hardware models x jobs 1/8.
func TestOracleFamily(t *testing.T) {
	n := familySize
	if testing.Short() {
		n = 24
	}
	o := DefaultOracle()
	for _, k := range Family(1, n) {
		if f := o.Check(k); f != nil {
			t.Fatalf("oracle failure: %v", f)
		}
	}
}

// TestOracleExplicitCoreModels: the oracle checks a kernel on the
// explicit core models, Haswell out of order and the A53 in order. Its
// replay phase must retime each cell on the cell's own model: a replay
// on another model than the direct run's reports a false replay-diff.
func TestOracleExplicitCoreModels(t *testing.T) {
	o := DefaultOracle()
	o.Systems = []*sim.Config{
		uarch.WithCoreModel(uarch.Haswell(), sim.CoreOoO),
		uarch.WithCoreModel(uarch.A53(), sim.CoreInOrder),
	}
	if f := o.Check(Family(1, 1)[0]); f != nil {
		t.Fatalf("oracle failure: %v", f)
	}
}

// TestDefaultOracleCoversEveryCoreModel: the default sim phase runs
// both machines on every registered core model under every hardware
// model, and each cell's name carries its core model.
func TestDefaultOracleCoversEveryCoreModel(t *testing.T) {
	got := map[string]bool{}
	for _, c := range DefaultOracle().simCells() {
		got[c.name] = true
	}
	var want []string
	for _, m := range []string{"A53", "Haswell"} {
		for _, core := range sim.CoreModels() {
			for _, h := range hwpf.Names() {
				want = append(want, m+"/"+core+"/"+h)
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d distinct default cells, want %d", len(got), len(want))
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("no default oracle cell %s", name)
		}
	}
}

// TestOracleCatchesPlantedClampBug proves the oracle is not vacuous:
// an off-by-one widening of the §4.2 clamp (injected through
// prefetch.Options.TestClampSlack) must be caught — the duplicated
// intermediate load reads one element past its array — and Minimize
// must shrink the reproduction to a near-minimal kernel.
func TestOracleCatchesPlantedClampBug(t *testing.T) {
	o := DefaultOracle()
	o.PassTweak = func(opts *prefetch.Options) { opts.TestClampSlack = 1 }

	// A mid-sized indirect kernel: the bug fires on any unit-stride
	// kernel with at least one index load.
	p := Params{Seed: 5, Shape: ShapeNested, Rows: 32, Cols: 16, Indir: 2, Stride: 1,
		Hash: true, Extra: 2, Body: BodyStore, Elem: 2, Idx: 2}.Normalize()
	fail := o.Check(Generate(p))
	if fail == nil {
		t.Fatal("planted clamp bug not caught")
	}
	if fail.Stage != "interp-diff" && fail.Stage != "sim-invariant" {
		t.Errorf("unexpected failure stage %q: %v", fail.Stage, fail)
	}
	if !strings.Contains(fail.Detail, "fault") {
		t.Errorf("failure should be an out-of-bounds fault, got: %v", fail)
	}

	min, minFail := o.Minimize(p)
	if minFail == nil {
		t.Fatal("minimized kernel no longer fails")
	}
	if min.Shape != ShapeFlat || min.Rows != 4 || min.Indir != 1 ||
		min.Hash || min.Body != BodyReduce || min.Seed != 1 {
		t.Errorf("minimization left a non-minimal kernel: %s", min.Canonical())
	}

	// The same kernel passes once the injection is removed — the
	// failure is the planted bug, not the kernel.
	clean := DefaultOracle()
	if f := clean.Check(Generate(min)); f != nil {
		t.Errorf("minimized kernel fails without the planted bug: %v", f)
	}
}

// TestMinimizeOnPassingParams: Minimize on a healthy kernel reports no
// failure and returns the input unchanged.
func TestMinimizeOnPassingParams(t *testing.T) {
	o := DefaultOracle()
	p := Params{Seed: 11, Shape: ShapeFlat, Rows: 16, Indir: 1, Stride: 1}.Normalize()
	min, fail := o.Minimize(p)
	if fail != nil {
		t.Fatalf("healthy kernel reported failing: %v", fail)
	}
	if min.Canonical() != p.Canonical() {
		t.Errorf("Minimize mutated a passing vector: %s -> %s", p.Canonical(), min.Canonical())
	}
}
