package interp

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

func run(t *testing.T, src, fn string, args ...int64) (int64, *Machine) {
	t.Helper()
	m := ir.MustParse(src)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	mach := New(m, sim.DefaultConfig())
	v, err := mach.Run(fn, args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v, mach
}

const arithSrc = `module m
func f(%x: i64, %y: i64) -> i64 {
entry:
  %a = add %x, %y
  %b = mul %a, 3
  %c = sub %b, %y
  %d = div %c, 2
  %e = rem %d, 100
  %f = shl %e, 1
  %g = shr %f, 1
  %h = and %g, 255
  %i = or %h, 256
  %j = xor %i, 5
  %k = min %j, 300
  %l = max %k, 10
  ret %l
}
`

func TestArith(t *testing.T) {
	x, y := int64(10), int64(4)
	a := x + y
	b := a * 3
	c := b - y
	d := c / 2
	e := d % 100
	f := e << 1
	g := f >> 1
	h := g & 255
	i := h | 256
	j := i ^ 5
	k := j
	if 300 < k {
		k = 300
	}
	l := k
	if l < 10 {
		l = 10
	}
	got, _ := run(t, arithSrc, "f", x, y)
	if got != l {
		t.Errorf("f(%d,%d) = %d, want %d", x, y, got, l)
	}
}

func TestQuickArithMatchesGo(t *testing.T) {
	mod := ir.MustParse(arithSrc)
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(x, y int64) bool {
		// Constrain to avoid div-by-zero path (y affects %c only).
		x &= 0xffff
		y = y&0xffff | 1
		mach := New(mod, sim.DefaultConfig())
		got, err := mach.Run("f", x, y)
		if err != nil {
			return false
		}
		a := x + y
		b := a * 3
		c := b - y
		d := c / 2
		e := d % 100
		f := e << 1
		g := f >> 1
		h := g & 255
		i := h | 256
		j := i ^ 5
		k := j
		if 300 < k {
			k = 300
		}
		if k < 10 {
			k = 10
		}
		return got == k
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

const sumSrc = `module m
func sum(%n: i64) -> i64 {
entry:
  %buf = alloc %n, 8
  br fill
fill:
  %i = phi i64 [entry: 0, fbody: %i2]
  %c = cmp lt %i, %n
  cbr %c, fbody, loop
fbody:
  %a = gep %buf, %i, 8
  %sq = mul %i, %i
  store i64, %a, %sq
  %i2 = add %i, 1
  br fill
loop:
  br header
header:
  %j = phi i64 [loop: 0, body: %j2]
  %s = phi i64 [loop: 0, body: %s2]
  %c2 = cmp lt %j, %n
  cbr %c2, body, exit
body:
  %a2 = gep %buf, %j, 8
  %v = load i64, %a2
  %s2 = add %s, %v
  %j2 = add %j, 1
  br header
exit:
  ret %s
}
`

func TestLoopAndMemory(t *testing.T) {
	n := int64(100)
	want := int64(0)
	for i := int64(0); i < n; i++ {
		want += i * i
	}
	got, mach := run(t, sumSrc, "sum", n)
	if got != want {
		t.Errorf("sum(%d) = %d, want %d", n, got, want)
	}
	st := mach.Stats()
	if st.Cycles <= 0 {
		t.Error("no cycles recorded")
	}
	if st.Loads != uint64(n) {
		t.Errorf("loads = %d, want %d", st.Loads, n)
	}
	if st.Stores != uint64(n) {
		t.Errorf("stores = %d, want %d", st.Stores, n)
	}
}

func TestNarrowTypesSignExtend(t *testing.T) {
	src := `module m
func f() -> i64 {
entry:
  %buf = alloc 8, 1
  store i8, %buf, -1
  %v = load i8, %buf
  ret %v
}
`
	got, _ := run(t, src, "f")
	if got != -1 {
		t.Errorf("i8 round trip = %d, want -1", got)
	}
}

func TestI32RoundTrip(t *testing.T) {
	src := `module m
func f(%x: i64) -> i64 {
entry:
  %buf = alloc 4, 4
  %a = gep %buf, 2, 4
  store i32, %a, %x
  %v = load i32, %a
  ret %v
}
`
	m := ir.MustParse(src)
	for _, x := range []int64{0, 1, -1, 1 << 30, -(1 << 30), 2147483647, -2147483648} {
		mach := New(m, sim.DefaultConfig())
		got, err := mach.Run("f", x)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if got != x {
			t.Errorf("i32 round trip of %d = %d", x, got)
		}
	}
}

func TestOutOfBoundsLoadFaults(t *testing.T) {
	src := `module m
func f() -> i64 {
entry:
  %buf = alloc 4, 8
  %a = gep %buf, 100, 8
  %v = load i64, %a
  ret %v
}
`
	m := ir.MustParse(src)
	mach := New(m, sim.DefaultConfig())
	_, err := mach.Run("f")
	var fault *Fault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v, want Fault", err)
	}
	if fault.Op != ir.OpLoad {
		t.Errorf("fault op = %s", fault.Op)
	}
}

// TestAllocPastCapFaults: an IR alloc past MaxAllocBytes fails the run
// with an alloc Fault before the host allocator sees it.
func TestAllocPastCapFaults(t *testing.T) {
	src := `module m
func f(%n: i64) -> i64 {
entry:
  %buf = alloc %n, 8
  %v = load i64, %buf
  ret %v
}
`
	mach := New(ir.MustParse(src), sim.DefaultConfig())
	_, err := mach.Run("f", MaxAllocBytes/8+1)
	var fault *Fault
	if !errors.As(err, &fault) || fault.Op != ir.OpAlloc {
		t.Fatalf("err = %v, want an alloc Fault", err)
	}
}

func TestGuardGapCatchesOverrun(t *testing.T) {
	// One element past the end must fault, not silently read the next
	// allocation.
	src := `module m
func f(%n: i64) -> i64 {
entry:
  %a = alloc %n, 8
  %b = alloc %n, 8
  %addr = gep %a, %n, 8
  %v = load i64, %addr
  ret %v
}
`
	m := ir.MustParse(src)
	mach := New(m, sim.DefaultConfig())
	if _, err := mach.Run("f", 16); err == nil {
		t.Fatal("one-past-end load did not fault")
	}
}

func TestPrefetchNeverFaults(t *testing.T) {
	src := `module m
func f() -> i64 {
entry:
  prefetch 999999999
  ret 7
}
`
	got, mach := run(t, src, "f")
	if got != 7 {
		t.Errorf("got %d", got)
	}
	if mach.Stats().Prefetches != 1 {
		t.Error("prefetch not counted")
	}
	if mach.Core.Hierarchy().SWPrefetches != 0 {
		t.Error("invalid prefetch reached the memory system")
	}
}

func TestDivByZeroFaults(t *testing.T) {
	src := `module m
func f(%x: i64) -> i64 {
entry:
  %v = div 10, %x
  ret %v
}
`
	m := ir.MustParse(src)
	mach := New(m, sim.DefaultConfig())
	if _, err := mach.Run("f", 0); err == nil {
		t.Fatal("division by zero did not fault")
	}
	mach2 := New(m, sim.DefaultConfig())
	if v, err := mach2.Run("f", 2); err != nil || v != 5 {
		t.Fatalf("10/2 = %d, %v", v, err)
	}
}

func TestCalls(t *testing.T) {
	src := `module m
func double(%x: i64) -> i64 {
entry:
  %v = mul %x, 2
  ret %v
}

func f(%x: i64) -> i64 {
entry:
  %a = call i64 @double(%x)
  %b = call i64 @double(%a)
  ret %b
}
`
	got, _ := run(t, src, "f", 5)
	if got != 20 {
		t.Errorf("f(5) = %d, want 20", got)
	}
}

func TestRecursionDepthLimited(t *testing.T) {
	src := `module m
func f(%x: i64) -> i64 {
entry:
  %v = call i64 @f(%x)
  ret %v
}
`
	m := ir.MustParse(src)
	mach := New(m, sim.DefaultConfig())
	_, err := mach.Run("f", 1)
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("err = %v, want call depth error", err)
	}
}

func TestInstructionBudget(t *testing.T) {
	src := `module m
func f() -> i64 {
entry:
  br loop
loop:
  br loop
}
`
	m := ir.MustParse(src)
	mach := New(m, sim.DefaultConfig())
	mach.MaxInstrs = 1000
	_, err := mach.Run("f")
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("err = %v, want budget error", err)
	}
}

func TestSelectAndCmp(t *testing.T) {
	src := `module m
func max3(%a: i64, %b: i64, %c: i64) -> i64 {
entry:
  %ab = cmp gt %a, %b
  %m1 = select %ab, %a, %b
  %mc = cmp gt %m1, %c
  %m2 = select %mc, %m1, %c
  ret %m2
}
`
	m := ir.MustParse(src)
	err := quick.Check(func(a, b, c int64) bool {
		mach := New(m, sim.DefaultConfig())
		got, err := mach.Run("max3", a, b, c)
		if err != nil {
			return false
		}
		want := a
		if b > want {
			want = b
		}
		if c > want {
			want = c
		}
		return got == want
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestPrefetchSemanticsPreserved is the key differential property: the
// prefetch pass must not change any program result. Random indirect
// kernels are run with and without the pass on random inputs.
func TestPrefetchSemanticsPreserved(t *testing.T) {
	const kernel = `module k
func k(%n: i64, %m: i64) -> i64 {
entry:
  %idx = alloc %n, 8
  %dat = alloc %m, 8
  br fill
fill:
  %i = phi i64 [entry: 0, fbody: %i2]
  %c = cmp lt %i, %n
  cbr %c, fbody, fill2
fbody:
  %h1 = mul %i, 2654435761
  %h2 = shr %h1, 5
  %h = rem %h2, %m
  %a = gep %idx, %i, 8
  store i64, %a, %h
  %i2 = add %i, 1
  br fill
fill2:
  br f2h
f2h:
  %j = phi i64 [fill2: 0, f2b: %j2]
  %c2 = cmp lt %j, %m
  cbr %c2, f2b, main
f2b:
  %sq = mul %j, %j
  %a2 = gep %dat, %j, 8
  store i64, %a2, %sq
  %j2 = add %j, 1
  br f2h
main:
  br header
header:
  %q = phi i64 [main: 0, body: %q2]
  %s = phi i64 [main: 0, body: %s2]
  %c3 = cmp lt %q, %n
  cbr %c3, body, exit
body:
  %ia = gep %idx, %q, 8
  %iv = load i64, %ia
  %da = gep %dat, %iv, 8
  %dv = load i64, %da
  %s2 = add %s, %dv
  %q2 = add %q, 1
  br header
exit:
  ret %s
}
`
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := int64(r.Intn(200) + 1)
		sz := int64(r.Intn(100) + 1)

		plain := ir.MustParse(kernel)
		v1, err := New(plain, sim.DefaultConfig()).Run("k", n, sz)
		if err != nil {
			t.Logf("plain run: %v", err)
			return false
		}

		pfMod := ir.MustParse(kernel)
		res := prefetch.Run(pfMod, prefetch.Options{C: int64(r.Intn(100) + 1)})
		if len(res["k"].Emitted) == 0 {
			t.Log("pass emitted nothing for the indirect kernel")
			return false
		}
		if err := pfMod.Verify(); err != nil {
			t.Logf("verify: %v", err)
			return false
		}
		v2, err := New(pfMod, sim.DefaultConfig()).Run("k", n, sz)
		if err != nil {
			t.Logf("prefetched run faulted: %v", err)
			return false
		}
		return v1 == v2
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

// TestPrefetchingActuallyHelps sanity-checks the whole stack: on an
// in-order core, the prefetched indirect kernel must be substantially
// faster than the plain one.
func TestPrefetchingActuallyHelps(t *testing.T) {
	src := `module k
func k(%n: i64, %m: i64) -> i64 {
entry:
  %idx = alloc %n, 8
  %dat = alloc %m, 8
  br fill
fill:
  %i = phi i64 [entry: 0, fbody: %i2]
  %c = cmp lt %i, %n
  cbr %c, fbody, main
fbody:
  %h1 = mul %i, 40503
  %h = rem %h1, %m
  %a = gep %idx, %i, 8
  store i64, %a, %h
  %i2 = add %i, 1
  br fill
main:
  br header
header:
  %q = phi i64 [main: 0, body: %q2]
  %s = phi i64 [main: 0, body: %s2]
  %c3 = cmp lt %q, %n
  cbr %c3, body, exit
body:
  %ia = gep %idx, %q, 8
  %iv = load i64, %ia
  %da = gep %dat, %iv, 8
  %dv = load i64, %da
  %s2 = add %s, %dv
  %q2 = add %q, 1
  br header
exit:
  ret %s
}
`
	cfg := sim.DefaultConfig()
	cfg.OutOfOrder = false
	cfg.IssueWidth = 2

	n, m := int64(20000), int64(1<<20)

	plain := ir.MustParse(src)
	m1 := New(plain, cfg)
	v1, err := m1.Run("k", n, m)
	if err != nil {
		t.Fatal(err)
	}
	base := m1.Stats().Cycles

	pfMod := ir.MustParse(src)
	prefetch.Run(pfMod, prefetch.DefaultOptions())
	m2 := New(pfMod, cfg)
	v2, err := m2.Run("k", n, m)
	if err != nil {
		t.Fatal(err)
	}
	pf := m2.Stats().Cycles

	if v1 != v2 {
		t.Fatalf("results differ: %d vs %d", v1, v2)
	}
	speedup := base / pf
	if speedup < 1.5 {
		t.Errorf("prefetching speedup on in-order core = %.2fx, want >= 1.5x", speedup)
	}
	t.Logf("in-order indirect-kernel speedup: %.2fx", speedup)
}

func TestStatsOpCounts(t *testing.T) {
	_, mach := run(t, sumSrc, "sum", 10)
	st := mach.Stats()
	if st.OpCounts[ir.OpLoad] != 10 {
		t.Errorf("load count = %d", st.OpCounts[ir.OpLoad])
	}
	if st.OpCounts[ir.OpPhi] == 0 {
		t.Error("phis not counted")
	}
	if st.Executed == 0 || st.Instructions == 0 {
		t.Error("empty stats")
	}
	if st.Executed <= st.Instructions {
		t.Error("Executed should exceed issued (phis are free)")
	}
}

func TestWriteReadSlice(t *testing.T) {
	mem := NewMemory()
	base, err := mem.Alloc(100 * 4)
	if err != nil {
		t.Fatal(err)
	}
	vals := []int64{1, -2, 3, 1 << 20}
	if err := mem.WriteSlice(base, ir.I32, vals); err != nil {
		t.Fatal(err)
	}
	got, err := mem.ReadSlice(base, ir.I32, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("slice[%d] = %d, want %d", i, got[i], vals[i])
		}
	}
}

// TestPhiSwapSemantics: two phis that exchange values each iteration
// must be evaluated in parallel, not sequentially.
func TestPhiSwapSemantics(t *testing.T) {
	src := `module m
func f(%n: i64) -> i64 {
entry:
  br header
header:
  %i = phi i64 [entry: 0, body: %i2]
  %a = phi i64 [entry: 1, body: %b]
  %b = phi i64 [entry: 2, body: %a]
  %c = cmp lt %i, %n
  cbr %c, body, exit
body:
  %i2 = add %i, 1
  br header
exit:
  %r = mul %a, 10
  %r2 = add %r, %b
  ret %r2
}
`
	m := ir.MustParse(src)
	// After an even number of iterations a=1,b=2 -> 12; odd -> 21.
	for n, want := range map[int64]int64{0: 12, 1: 21, 2: 12, 5: 21} {
		mach := New(m, sim.DefaultConfig())
		got, err := mach.Run("f", n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("f(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestTimingMonotonicity: adding prefetch instructions may never make
// the simulated result incorrect, and cycle counts must be positive
// and finite across all machine presets.
func TestTimingAcrossPresets(t *testing.T) {
	for _, cfg := range []*sim.Config{sim.DefaultConfig()} {
		mach := New(ir.MustParse(sumSrc), cfg)
		if _, err := mach.Run("sum", 500); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		st := mach.Stats()
		if st.Cycles <= 0 || st.Cycles != st.Cycles /* NaN check */ {
			t.Errorf("%s: bad cycle count %v", cfg.Name, st.Cycles)
		}
		if float64(st.Instructions) > st.Cycles*float64(cfg.IssueWidth)+1 {
			t.Errorf("%s: IPC exceeds issue width: %d instrs in %.0f cycles",
				cfg.Name, st.Instructions, st.Cycles)
		}
	}
}
