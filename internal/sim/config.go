// Package sim provides a cycle-approximate timing model of a single-core
// memory hierarchy: set-associative caches, a TLB with a page-table
// walker, a bandwidth-limited DRAM bus, a hardware stride prefetcher,
// and an in-order or out-of-order core.
//
// It is the substitute for the four real machines of Table 1 in
// Ainsworth & Jones (CGO 2017). The model is deliberately simple — it
// tracks timestamps rather than simulating pipelines — but it captures
// every phenomenon the paper's evaluation turns on: memory-level
// parallelism extracted by out-of-order windows and by software
// prefetches, instruction-issue overhead of prefetch code, cache
// pollution from over-eager look-ahead, TLB walk serialisation, and
// DRAM bus saturation.
package sim

import (
	"fmt"

	"repro/internal/hwpf"
)

// StatsVersion identifies the statistical behaviour of the timing
// model. Any change that can alter the statistics a simulation reports
// for some (workload, config, variant, options) cell — a latency
// formula, a replacement policy, an issue rule — MUST bump this
// constant. It is the version salt in internal/store cache keys, so
// bumping it cleanly invalidates every persisted result; changes that
// are proven bit-identical (cmd/golden diffs) keep it unchanged so
// caches survive pure refactors.
//
// Version history:
//
//	1  the PR-1 array-refactored engine (bit-identical to the seed)
//	2  the pluggable hardware-prefetcher subsystem (internal/hwpf):
//	   hwpf=stride is a pure port pinned bit-identical by cmd/golden,
//	   but the Config gained the HWPrefetcher axis and the nextline/
//	   ghb/imp models shape statistics, so v1 entries must miss.
//	3  the pluggable core-model subsystem (coremodel.go) plus two
//	   timing bugfixes. core=interval is a pure port pinned
//	   bit-identical by cmd/golden, but (a) PrefetchLateCycles now
//	   actually accumulates — the old guard made the added term
//	   provably zero, so demand hits that waited on an in-flight fill
//	   were never charged to the stat — and (b) TLB hits on a page
//	   whose table walk is still in flight now wait for the walk to
//	   complete instead of resolving instantly off the entry the walk
//	   inserted at its start. Both change reported statistics, and the
//	   Config gained the Core axis, so v2 entries must miss.
const StatsVersion = 3

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name     string
	Size     int64 // bytes
	LineSize int64 // bytes
	Assoc    int   // ways
	Latency  int64 // access latency in cycles
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int64 { return c.Size / (c.LineSize * int64(c.Assoc)) }

// Config describes a machine. The zero value is not usable; start from
// a preset in package uarch or from DefaultConfig.
type Config struct {
	Name string

	// Core selects the CPU core timing model the interpreter drives
	// (see coremodel.go): "interval", "ooo" or "inorder". Empty
	// preserves the pre-axis behaviour — the interval model, which
	// itself derives in-order vs out-of-order behaviour from the
	// OutOfOrder flag (the legacy resolution). The explicit ooo/inorder
	// models ignore OutOfOrder: selecting one pins the pipeline style
	// regardless of the machine's default.
	Core       string
	OutOfOrder bool
	IssueWidth int // instructions issued per cycle
	ROBSize    int // reorder-buffer entries bounding in-flight instructions
	MSHRs      int // simultaneous outstanding cache misses

	// Arithmetic latencies (cycles). Loads take cache latencies.
	MulLatency int64
	DivLatency int64

	// Branch handling: every conditional branch pays this many cycles
	// with probability MispredictRate (crude front-end model).
	MispredictPenalty int64
	MispredictRate    float64

	// Caches, L1 first. All levels share LineSize of the first entry.
	Caches []CacheConfig

	// DRAM.
	DRAMLatency    int64   // cycles from bus grant to data
	BytesPerCycle  float64 // DRAM bus bandwidth
	SharedCores    int     // cores contending for the bus (fig. 9); 0/1 = alone
	ContentionLoad float64 // fraction of bus consumed per contending core

	// Virtual memory.
	PageSize    int64
	TLBEntries  int   // L1 DTLB entries (fully associative)
	TLB2Entries int   // L2 TLB entries; 0 disables
	TLB2Latency int64 // extra cycles for an L2 TLB hit
	WalkLatency int64 // page-table walk latency in cycles
	PageWalkers int   // concurrent page-table walks supported

	// Hardware prefetcher. HWPrefetcher selects the model the memory
	// hierarchy drives (see internal/hwpf): "none", "stride",
	// "nextline", "ghb" or "imp". Empty means "none".
	//
	// The Stride* knobs predate the pluggable subsystem and now
	// parameterise every model: Degree is candidates emitted per
	// trained observation, Conf the observations required before
	// issuing, Streams the concurrent pattern trackers (default 16),
	// and FillLevel the first cache level hardware prefetches fill
	// into (0 = L1, 1 = L2 like Intel's streamer) — so a covered
	// sequential stream still pays inner-level latencies and
	// page-crossing misses, the headroom software stride prefetches
	// exploit (figure 5).
	HWPrefetcher    string
	StrideDegree    int // candidates issued ahead once a pattern is confident
	StrideConf      int // observations required before issuing
	StrideFillLevel int // first cache level HW prefetches fill into
	StrideStreams   int // concurrent pattern trackers (default 16)
}

// CoreName resolves the effective core timing model: an explicit Core
// wins; empty falls back to the interval model, whose in-order vs
// out-of-order behaviour follows the legacy OutOfOrder flag.
func (c *Config) CoreName() string {
	if c.Core != "" {
		return c.Core
	}
	return CoreInterval
}

// HWPrefetcherName resolves the effective hardware-prefetcher model:
// HWPrefetcher, with empty meaning "none".
func (c *Config) HWPrefetcherName() string {
	if c.HWPrefetcher == "" {
		return hwpf.NameNone
	}
	return c.HWPrefetcher
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.IssueWidth <= 0 {
		return fmt.Errorf("sim: %s: IssueWidth must be positive", c.Name)
	}
	if c.ROBSize <= 0 {
		return fmt.Errorf("sim: %s: ROBSize must be positive", c.Name)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("sim: %s: MSHRs must be positive", c.Name)
	}
	if len(c.Caches) == 0 {
		return fmt.Errorf("sim: %s: at least one cache level required", c.Name)
	}
	line := c.Caches[0].LineSize
	for _, l := range c.Caches {
		if l.LineSize != line {
			return fmt.Errorf("sim: %s: all cache levels must share a line size", c.Name)
		}
		if l.Assoc <= 0 || l.Size <= 0 || l.Size%(l.LineSize*int64(l.Assoc)) != 0 {
			return fmt.Errorf("sim: %s: cache %s geometry invalid", c.Name, l.Name)
		}
	}
	if c.BytesPerCycle <= 0 {
		return fmt.Errorf("sim: %s: BytesPerCycle must be positive", c.Name)
	}
	if c.PageSize <= 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("sim: %s: PageSize must be a power of two", c.Name)
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("sim: %s: TLBEntries must be positive", c.Name)
	}
	if c.PageWalkers <= 0 {
		return fmt.Errorf("sim: %s: PageWalkers must be positive", c.Name)
	}
	if c.Core != "" && !KnownCoreModel(c.Core) {
		return fmt.Errorf("sim: %s: unknown core model %q (have %v)",
			c.Name, c.Core, CoreModels())
	}
	if c.HWPrefetcher != "" && !hwpf.Known(c.HWPrefetcher) {
		return fmt.Errorf("sim: %s: unknown hardware prefetcher %q (have %v)",
			c.Name, c.HWPrefetcher, hwpf.Names())
	}
	return nil
}

// DefaultConfig returns a generic out-of-order machine, useful for
// tests that do not care about a specific microarchitecture.
func DefaultConfig() *Config {
	return &Config{
		Name:       "generic-ooo",
		OutOfOrder: true,
		IssueWidth: 4,
		ROBSize:    128,
		MSHRs:      10,
		MulLatency: 3,
		DivLatency: 20,
		Caches: []CacheConfig{
			{Name: "L1", Size: 8 << 10, LineSize: 64, Assoc: 8, Latency: 4},
			{Name: "L2", Size: 64 << 10, LineSize: 64, Assoc: 8, Latency: 12},
			{Name: "L3", Size: 512 << 10, LineSize: 64, Assoc: 16, Latency: 36},
		},
		DRAMLatency:   200,
		BytesPerCycle: 16,
		PageSize:      4096,
		TLBEntries:    64,
		TLB2Entries:   512,
		TLB2Latency:   8,
		WalkLatency:   90,
		PageWalkers:   2,
		HWPrefetcher:  hwpf.NameStride,
		StrideDegree:  4,
		StrideConf:    2,
	}
}
