package interp

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
)

// benchIndirectSrc is an indirect-access kernel, buckets[keys[j]] +=
// data[j] with a checksum: the shape the prefetch pass targets, and a
// dense mix of loads, stores, geps, arithmetic, phis and branches for
// the interpreter loop.
const benchIndirectSrc = `module bench
func kernel(%n: i64) -> i64 {
entry:
  %keys = alloc %n, 4
  %data = alloc %n, 4
  %buckets = alloc %n, 4
  br init
init:
  %i = phi i64 [entry: 0, init: %i2]
  %r = mul %i, 2654435761
  %r2 = and %r, 1048575
  %k = rem %r2, %n
  %kp = gep %keys, %i, 4
  store i32, %kp, %k
  %dp = gep %data, %i, 4
  store i32, %dp, %i
  %i2 = add %i, 1
  %c = cmp lt %i2, %n
  cbr %c, init, loop
loop:
  %j = phi i64 [init: 0, loop: %j2]
  %acc = phi i64 [init: 0, loop: %acc2]
  %jp = gep %keys, %j, 4
  %kj = load i32, %jp
  %bp = gep %buckets, %kj, 4
  %old = load i32, %bp
  %djp = gep %data, %j, 4
  %dv = load i32, %djp
  %new = add %old, %dv
  store i32, %bp, %new
  %acc2 = add %acc, %new
  %j2 = add %j, 1
  %c2 = cmp lt %j2, %n
  cbr %c2, loop, done
done:
  ret %acc2
}
`

// benchArithSrc is a tight dependent arithmetic loop: no memory system
// involvement beyond the initial block, isolating the uop dispatch loop.
const benchArithSrc = `module bench
func spin(%n: i64) -> i64 {
entry:
  br loop
loop:
  %i = phi i64 [entry: 0, loop: %i2]
  %a = phi i64 [entry: 1, loop: %a4]
  %a2 = mul %a, 6364136223
  %a3 = add %a2, 1442695040
  %a4 = xor %a3, %i
  %i2 = add %i, 1
  %c = cmp lt %i2, %n
  cbr %c, loop, done
done:
  ret %a4
}
`

func benchKernel(b *testing.B, src, fn string, n int64) {
	b.Helper()
	mod := ir.MustParse(src)
	if err := mod.Verify(); err != nil {
		b.Fatalf("verify: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var executed uint64
	for i := 0; i < b.N; i++ {
		mach := New(mod, sim.DefaultConfig())
		if _, err := mach.Run(fn, n); err != nil {
			b.Fatalf("run: %v", err)
		}
		executed = mach.Stats().Executed
	}
	b.ReportMetric(float64(executed), "instrs/op")
}

func BenchmarkInterpIndirect(b *testing.B) {
	benchKernel(b, benchIndirectSrc, "kernel", 1<<12)
}

func BenchmarkInterpArith(b *testing.B) {
	benchKernel(b, benchArithSrc, "spin", 1<<14)
}

// BenchmarkInterpDecodeCache measures repeated Run calls on one
// machine, where the pre-decoded stream is reused wholesale.
func BenchmarkInterpDecodeCache(b *testing.B) {
	mod := ir.MustParse(benchArithSrc)
	mach := New(mod, sim.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mach.Run("spin", 64); err != nil {
			b.Fatalf("run: %v", err)
		}
	}
}
