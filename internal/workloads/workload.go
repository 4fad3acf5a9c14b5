// Package workloads rebuilds the benchmarks of §5.1 of Ainsworth &
// Jones (CGO 2017) as IR kernels with deterministic data generators:
//
//	IS     NAS Integer Sort bucket-counting loop
//	CG     NAS Conjugate Gradient sparse matrix-vector product
//	RA     HPCC RandomAccess table update
//	HJ     hash join probe (2 or 8 elements per bucket)
//	G500   Graph500 breadth-first search over a Kronecker graph in CSR
//
// Each workload provides a Plain kernel (what a compiler sees before
// the prefetch pass) and a Manual variant with the best hand-inserted
// prefetches the paper describes, including the input-dependent
// knowledge the automatic pass cannot have (HJ-8 chain length, RA's
// block-repeat structure, G500's edge-list prefetch).
//
// Inputs are scaled down relative to the paper (see
// docs/experiments.md), in proportion to the uarch package's
// CacheScale.
package workloads

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Variant selects how prefetches got into the kernel.
type Variant int

// Variants. Auto is produced by the bench harness by running the pass
// over Plain, so this package only builds Plain and Manual.
const (
	Plain Variant = iota
	Manual
)

func (v Variant) String() string {
	switch v {
	case Plain:
		return "plain"
	case Manual:
		return "manual"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// Instance is a runnable benchmark: a kernel module plus an executor
// that sets up memory, runs the kernel and returns a checksum.
type Instance struct {
	Name    string
	Variant string
	Mod     *ir.Module
	// Exec allocates and fills the input arrays (untimed), invokes the
	// kernel (timed) and returns the workload checksum.
	Exec func(m *interp.Machine) (int64, error)
	// Want is the reference checksum computed by a pure-Go
	// implementation of the same algorithm.
	Want int64
}

// Run executes the instance on the machine and validates the checksum.
func (inst *Instance) Run(m *interp.Machine) error {
	got, err := inst.Exec(m)
	if err != nil {
		return fmt.Errorf("%s/%s: %w", inst.Name, inst.Variant, err)
	}
	if got != inst.Want {
		return fmt.Errorf("%s/%s: checksum %d, want %d", inst.Name, inst.Variant, got, inst.Want)
	}
	return nil
}

// Workload builds instances of one benchmark.
type Workload struct {
	Name string
	// Params is the canonical rendering of the constructor arguments
	// (e.g. "nkeys=8192,nbuckets=131072"). Two workloads with equal
	// Name+Params generate identical kernels, inputs and checksums, so
	// the pair is the workload component of internal/store cache keys;
	// Name alone is ambiguous because sizes do not appear in it.
	Params string
	// ManualDepths reports how many staggered prefetch levels the
	// manual variant supports (fig. 7); 0 means the depth argument is
	// ignored.
	ManualDepths int

	build func(v Variant, c int64, depth int) *ir.Module
	exec  func(m *interp.Machine) (int64, error)
	want  int64
}

// Plain returns the kernel without prefetches.
func (w *Workload) Plain() *Instance {
	return &Instance{
		Name: w.Name, Variant: "plain",
		Mod:  w.build(Plain, 0, 0),
		Exec: w.exec, Want: w.want,
	}
}

// Manual returns the hand-prefetched kernel with look-ahead constant c.
// depth limits staggered prefetch levels where supported (0 = all).
func (w *Workload) Manual(c int64, depth int) *Instance {
	return &Instance{
		Name: w.Name, Variant: "manual",
		Mod:  w.build(Manual, c, depth),
		Exec: w.exec, Want: w.want,
	}
}

// Checksum is the accumulation step shared by the workload references:
// a simple order-independent mix. It delegates to gen.Mix so the
// project has exactly one definition of the checksum accumulator (the
// generated-kernel reference models use the same one).
func Checksum(acc, v int64) int64 {
	return gen.Mix(acc, v)
}

// rng adapts gen.Rand (SplitMix64, stable across Go versions) to the
// lowercase call sites the workload generators have always used; the
// bit stream is owned by gen so the two packages cannot drift apart.
type rng struct{ r *gen.Rand }

func newRNG(seed uint64) *rng { return &rng{r: gen.NewRand(seed)} }

func (r *rng) next() uint64 { return r.r.Next() }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int64) int64 { return r.r.Intn(n) }

// hashMul is the multiplicative hash constant the kernels use; odd, so
// it is invertible modulo any power of two, letting the generators
// construct keys that land in chosen buckets.
const hashMul = 2654435761

// hashMulInv is hashMul^-1 mod 2^64.
var hashMulInv = mulInv(hashMul)

// mulInv computes the multiplicative inverse of odd a modulo 2^64 by
// Newton iteration.
func mulInv(a uint64) uint64 {
	x := a // correct to 3 bits
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

// emitClampedIndex is a helper for manual-prefetch builders: it emits
// min(iv+off, bound) where bound is inclusive.
func emitClampedIndex(b *ir.Builder, iv ir.Value, off int64, bound ir.Value) *ir.Instr {
	adv := b.Add(iv, ir.ConstInt(off))
	return b.Min(adv, bound)
}
