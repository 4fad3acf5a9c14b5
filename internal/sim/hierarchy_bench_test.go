package sim

import "testing"

// The hierarchy micro-benchmarks drive the Access hot path directly,
// without the interpreter on top, so regressions in the MSHR/TLB/stride
// bookkeeping show up in isolation.

// lcg is a tiny deterministic PRNG so the random-access benchmarks are
// reproducible and benchmark overhead stays negligible.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

func BenchmarkHierarchySequential(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	now := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Access(AccessLoad, 1, int64(i)*8, now)
		now += 1
	}
}

// window paces a benchmark like a core with a bounded in-flight
// window: the clock never runs more than windowSize accesses behind the
// oldest outstanding completion. Issuing unboundedly far in the past
// would flood the in-flight bookkeeping in a way no real driver does.
type window struct {
	done [16]float64
	i    int
}

func (w *window) pace(now, complete float64) float64 {
	w.done[w.i] = complete
	w.i = (w.i + 1) % len(w.done)
	if oldest := w.done[w.i]; oldest > now {
		return oldest
	}
	return now
}

func BenchmarkHierarchyRandom(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	r := lcg(1)
	var w window
	now := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addr := int64(r.next() & (1<<26 - 1))
		done := h.Access(AccessLoad, 2, addr, now)
		now = w.pace(now, done) + 1
	}
}

// BenchmarkHierarchyMixed interleaves a sequential stream, random
// demand loads, and software prefetches — the access mix the prefetch
// pass produces on the paper's indirect workloads.
func BenchmarkHierarchyMixed(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	r := lcg(7)
	var w window
	now := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Access(AccessLoad, 1, int64(i)*8, now)
		addr := int64(r.next() & (1<<26 - 1))
		h.Access(AccessPrefetch, 3, addr, now)
		done := h.Access(AccessLoad, 2, addr, now+10)
		now = w.pace(now, done) + 1
	}
}

func BenchmarkTLBTranslate(b *testing.B) {
	t := NewTLB(DefaultConfig())
	r := lcg(3)
	var w window
	now := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		done := t.Translate(int64(r.next()&(1<<28-1)), now)
		now = w.pace(now, done) + 1
	}
}

func BenchmarkHierarchyReset(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	r := lcg(5)
	for i := 0; i < 4096; i++ {
		h.Access(AccessLoad, 1, int64(r.next()&(1<<26-1)), float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
	}
}
