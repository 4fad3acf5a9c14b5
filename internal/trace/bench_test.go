// Benchmarks for the record/replay pipeline. They live in an external
// test package so they can drive the interpreter (internal/interp
// imports internal/trace; the reverse import would be a cycle).
//
// The headline number is the replay-vs-interpretation speedup on the
// indirect kernel: replay skips SSA dispatch, operand evaluation and
// simulated-memory traffic, touching only the timing model. Compare
// trace_replay with trace_record and the interp baseline on one host.
package trace_test

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchSrc mirrors internal/interp's benchIndirectSrc (n=1<<12):
// buckets[keys[j]] += data[j], the indirect-access shape the paper's
// prefetch pass targets.
const benchSrc = `module bench
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

const benchN = 1 << 12

func record(b *testing.B) *trace.Trace {
	b.Helper()
	mod := ir.MustParse(benchSrc)
	mach := interp.New(mod, sim.DefaultConfig())
	w := trace.NewWriter()
	mach.RecordTo(w)
	sum, err := mach.Run("kernel", benchN)
	if err != nil {
		b.Fatalf("run: %v", err)
	}
	st := mach.Stats()
	oc := make([]uint64, len(st.OpCounts))
	copy(oc, st.OpCounts[:])
	return w.Close(trace.Meta{Workload: "bench"}, trace.Summary{
		Executed: st.Executed, OpCounts: oc,
		Loads: st.Loads, Stores: st.Stores, Prefetches: st.Prefetches,
		Checksum: sum,
	})
}

// BenchmarkTraceRecord: one interpreted run with the recorder attached
// plus sealing the trace — the amortized, once-per-(workload, variant)
// cost. Compare against BenchmarkInterpIndirect (same kernel, same n,
// no recorder) for the recording overhead.
func BenchmarkTraceRecord(b *testing.B) {
	b.ReportAllocs()
	var bytes int
	for i := 0; i < b.N; i++ {
		bytes = record(b).EncodedEventBytes()
	}
	b.ReportMetric(float64(bytes), "trace-bytes/op")
}

// BenchmarkTraceReplay: retiming one predecoded trace on a fresh core —
// the per-(machine, hwpf) marginal cost of a grid cell under -exec
// replay. The image is built once (the sweep runner amortizes it across
// every cell of a group), so what remains is the timing model plus
// array dispatch. Compare against BenchmarkInterpIndirect: the delta is
// the interpretation work replay eliminates; the floor both share is
// the sim core/hierarchy itself.
func BenchmarkTraceReplay(b *testing.B) {
	im, err := interp.NewImage(record(b))
	if err != nil {
		b.Fatalf("image: %v", err)
	}
	cfg := sim.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := sim.NewCore(cfg)
		if _, err := im.Replay(c); err != nil {
			b.Fatalf("replay: %v", err)
		}
	}
}

// BenchmarkTraceImage: decoding a trace into its replayable form — the
// once-per-group cost of a store-warm replay sweep.
func BenchmarkTraceImage(b *testing.B) {
	tr := record(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interp.NewImage(tr); err != nil {
			b.Fatalf("image: %v", err)
		}
	}
}

// BenchmarkTraceDecode: Decode on an encoded trace — the store-hit
// path's deserialization cost.
func BenchmarkTraceDecode(b *testing.B) {
	enc := record(b).Encode()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Decode(enc); err != nil {
			b.Fatalf("decode: %v", err)
		}
	}
}
