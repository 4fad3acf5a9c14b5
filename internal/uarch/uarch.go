// Package uarch provides the simulated counterparts of the four
// machines in Table 1 of Ainsworth & Jones (CGO 2017):
//
//	Haswell   Intel Core i5-4570: out-of-order, 32KB L1D / 256KiB L2 /
//	          8MiB L3, DDR3, transparent huge pages enabled.
//	Xeon Phi  Intel Xeon Phi 3120P: in-order, 32KiB L1D / 512KiB L2,
//	          GDDR5 (high bandwidth, high latency).
//	A57       Nvidia TX1, ARM Cortex-A57: out-of-order, 32KiB L1D /
//	          2MiB L2, LPDDR4, a single page-table walker.
//	A53       Odroid C2, ARM Cortex-A53: in-order, 32KiB L1D / 1MiB L2,
//	          DDR3.
//
// Because the simulated workloads are scaled down (see
// docs/experiments.md), capacity parameters are reduced relative to the
// real parts, preserving the capacity relations the paper's analysis
// relies on (which irregular datasets fit in which level, TLB reach vs.
// array footprint). Outer levels scale by CacheScale; the L1 scales by only
// L1Scale, because the paper's "c = 64 is near-optimal" result depends
// on look-ahead-distance x lines-per-iteration staying well below L1
// capacity, and the look-ahead constant is not scaled. Latencies,
// widths, window sizes and walker counts are kept at realistic values.
package uarch

import (
	"repro/internal/hwpf"
	"repro/internal/sim"
)

// CacheScale is the factor by which cache and TLB capacities are
// reduced relative to the real machines, matching the workload scaling
// in package workloads.
const CacheScale = 8

// L1Scale is the gentler reduction applied to first-level caches (see
// the package comment).
const L1Scale = 2

// Haswell returns the simulated Intel Core i5-4570.
func Haswell() *sim.Config {
	return &sim.Config{
		Name:       "Haswell",
		OutOfOrder: true,
		IssueWidth: 4,
		// The overlap window is the effective scheduler capacity, not
		// the 192-entry architectural ROB: dependent uses of missing
		// loads pile up in the 60-entry RS long before the ROB fills,
		// bounding demand MLP well below the MSHR count — the headroom
		// software prefetching exploits on out-of-order cores (§6.1).
		ROBSize:    96,
		MSHRs:      10,
		MulLatency: 3,
		DivLatency: 20,

		MispredictPenalty: 15,
		MispredictRate:    0.02,

		Caches: []sim.CacheConfig{
			{Name: "L1", Size: 32 << 10 / L1Scale, LineSize: 64, Assoc: 8, Latency: 4},
			{Name: "L2", Size: 256 << 10 / CacheScale, LineSize: 64, Assoc: 8, Latency: 12},
			// The L3 is scaled slightly harder than the inner levels so
			// that the scaled irregular datasets keep the same "misses
			// the LLC" relation they have on the real part
			// (docs/experiments.md).
			{Name: "L3", Size: 8 << 20 / (2 * CacheScale), LineSize: 64, Assoc: 16, Latency: 34},
		},
		DRAMLatency:   220,
		BytesPerCycle: 8,

		// Transparent huge pages are the Haswell kernel's default in the
		// paper (§6.2, fig. 10); SmallPages() flips this.
		PageSize:    2 << 20,
		TLBEntries:  64 / 4,
		TLB2Entries: 1024 / 4,
		TLB2Latency: 8,
		WalkLatency: 40,
		PageWalkers: 2,

		HWPrefetcher:    hwpf.NameStride,
		StrideDegree:    4,
		StrideConf:      2,
		StrideFillLevel: 1, // Intel's streamer fills L2, not L1D
	}
}

// XeonPhi returns the simulated Intel Xeon Phi 3120P (one core of 57).
// The in-order pipeline cannot overlap misses across dependent uses,
// and GDDR5 has high latency in core cycles; bandwidth is plentiful.
func XeonPhi() *sim.Config {
	return &sim.Config{
		Name:       "XeonPhi",
		OutOfOrder: false,
		IssueWidth: 2,
		ROBSize:    16, // in-flight limit for an in-order pipeline
		MSHRs:      8,
		MulLatency: 4,
		DivLatency: 30,

		MispredictPenalty: 6,
		MispredictRate:    0.02,

		Caches: []sim.CacheConfig{
			{Name: "L1", Size: 32 << 10 / L1Scale, LineSize: 64, Assoc: 8, Latency: 3},
			{Name: "L2", Size: 512 << 10 / CacheScale, LineSize: 64, Assoc: 8, Latency: 22},
		},
		DRAMLatency:   340,
		BytesPerCycle: 16,

		PageSize:    4 << 10,
		TLBEntries:  64 / 4,
		TLB2Entries: 512 / 4,
		TLB2Latency: 10,
		WalkLatency: 80,
		PageWalkers: 2,

		// The Phi's L2 stride prefetcher is weak; software prefetch is
		// the recommended vehicle on this part (§2).
		HWPrefetcher:    hwpf.NameStride,
		StrideDegree:    2,
		StrideConf:      3,
		StrideFillLevel: 1,
	}
}

// A57 returns the simulated ARM Cortex-A57 (Nvidia TX1). Out-of-order,
// but with a single page-table walk supported at a time — §6.1 singles
// this out as the limiter for IS and HJ-2.
func A57() *sim.Config {
	return &sim.Config{
		Name:       "A57",
		OutOfOrder: true,
		IssueWidth: 3,
		// Effective scheduler window (see the Haswell comment); the
		// A57's issue queues are much smaller than its 128-entry ROB.
		ROBSize:    40,
		MSHRs:      6,
		MulLatency: 3,
		DivLatency: 20,

		MispredictPenalty: 15,
		MispredictRate:    0.02,

		Caches: []sim.CacheConfig{
			{Name: "L1", Size: 32 << 10 / L1Scale, LineSize: 64, Assoc: 2, Latency: 4},
			{Name: "L2", Size: 2 << 20 / CacheScale, LineSize: 64, Assoc: 16, Latency: 21},
		},
		DRAMLatency:   260,
		BytesPerCycle: 8,

		PageSize:    4 << 10,
		TLBEntries:  32 / 4,
		TLB2Entries: 512 / 4,
		TLB2Latency: 7,
		WalkLatency: 90,
		PageWalkers: 1, // the A57's single outstanding page-table walk

		HWPrefetcher:    hwpf.NameStride,
		StrideDegree:    4,
		StrideConf:      2,
		StrideFillLevel: 1,
	}
}

// A53 returns the simulated ARM Cortex-A53 (Odroid C2): a dual-issue
// in-order core that stalls on every use of a missing load.
func A53() *sim.Config {
	return &sim.Config{
		Name:       "A53",
		OutOfOrder: false,
		IssueWidth: 2,
		ROBSize:    8,
		MSHRs:      4,
		MulLatency: 3,
		DivLatency: 25,

		MispredictPenalty: 8,
		MispredictRate:    0.02,

		Caches: []sim.CacheConfig{
			{Name: "L1", Size: 32 << 10 / L1Scale, LineSize: 64, Assoc: 4, Latency: 3},
			{Name: "L2", Size: 1 << 20 / CacheScale, LineSize: 64, Assoc: 16, Latency: 15},
		},
		DRAMLatency:   230,
		BytesPerCycle: 6,

		PageSize:    4 << 10,
		TLBEntries:  32 / 4,
		TLB2Entries: 512 / 4,
		TLB2Latency: 7,
		WalkLatency: 70,
		PageWalkers: 1,

		HWPrefetcher:    hwpf.NameStride,
		StrideDegree:    3,
		StrideConf:      2,
		StrideFillLevel: 1,
	}
}

// All returns the four systems in the paper's presentation order.
func All() []*sim.Config {
	return []*sim.Config{Haswell(), XeonPhi(), A57(), A53()}
}

// ByName returns the preset with the given name, or nil.
func ByName(name string) *sim.Config {
	for _, c := range All() {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// SmallPages returns a copy of the configuration with 4KiB pages
// (figure 10's "Small Pages" variant).
func SmallPages(cfg *sim.Config) *sim.Config {
	out := *cfg
	out.Name = cfg.Name + "-4k"
	out.PageSize = 4 << 10
	return &out
}

// HugePages returns a copy with 2MiB pages (figure 10's "Huge Pages").
func HugePages(cfg *sim.Config) *sim.Config {
	out := *cfg
	out.Name = cfg.Name + "-2m"
	out.PageSize = 2 << 20
	return &out
}

// WithHWPrefetcher returns a copy of the configuration running the
// named hardware-prefetcher model (see internal/hwpf): "none",
// "stride", "nextline", "ghb" or "imp". The machine name is kept, so
// result labels stay comparable across the hardware axis; sweep
// records carry the model in their own column. The Stride* tuning
// knobs (degree, confidence, fill level, trackers) carry over to the
// new model, preserving each machine's hardware-aggressiveness
// defaults.
func WithHWPrefetcher(cfg *sim.Config, name string) *sim.Config {
	out := *cfg
	out.HWPrefetcher = name
	return &out
}

// WithCoreModel returns a copy of the configuration driven by the
// named CPU core timing model (see internal/sim): "interval", "ooo"
// or "inorder". The machine name is kept, so result labels stay
// comparable across the core axis; sweep records carry the model in
// their own column. All pipeline parameters (issue width, ROB size,
// MSHRs, the legacy OutOfOrder flag the interval model consults)
// carry over — only the timing model interpreting them changes.
func WithCoreModel(cfg *sim.Config, name string) *sim.Config {
	out := *cfg
	out.Core = name
	return &out
}

// WithCores returns a copy contending with n-1 identical cores for the
// DRAM bus (figure 9). The contending copies are partially
// latency-bound themselves, so each injects less than a full core's
// worth of bus traffic.
func WithCores(cfg *sim.Config, n int) *sim.Config {
	out := *cfg
	out.SharedCores = n
	out.ContentionLoad = 0.7
	return &out
}
