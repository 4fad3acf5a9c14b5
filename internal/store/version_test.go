package store

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// TestStatsVersionBumpInvalidatesWarmV1 is the invalidation rule
// docs/service.md promises, exercised against the real v1→v2 bump (the
// hwpf subsystem): an entry persisted under the v1 salt must miss
// cleanly under the current default salt — no error, no stale result —
// while the object itself survives for stores still opened at v1.
func TestStatsVersionBumpInvalidatesWarmV1(t *testing.T) {
	if sim.StatsVersion < 2 {
		t.Fatalf("sim.StatsVersion = %d; the hwpf subsystem requires the v2 bump", sim.StatsVersion)
	}
	const v1Salt = "sim-stats-v1"
	if DefaultSalt() == v1Salt {
		t.Fatalf("DefaultSalt() = %q still the v1 salt", DefaultSalt())
	}

	dir := t.TempDir()
	req := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   uarch.A53(),
		Variant:  core.VariantPlain,
	}
	res, err := core.Run(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		t.Fatal(err)
	}

	v1, err := OpenSalted(dir, v1Salt)
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.Put(req, res); err != nil {
		t.Fatal(err)
	}
	if _, ok := v1.Get(req); !ok {
		t.Fatal("v1 store does not hit its own entry")
	}

	// The same directory at the current version: the warm v1 entry is
	// invisible, so the cell recomputes instead of replaying stale
	// statistics.
	cur, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Get(req); ok {
		t.Fatalf("v1 entry still hits under %s after the StatsVersion bump", DefaultSalt())
	}

	// The old objects are not destroyed — keys moved, data stayed.
	back, err := OpenSalted(dir, v1Salt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Get(req); !ok {
		t.Fatal("v1 entry lost after opening the store at the current version")
	}
}

// TestStatsVersionBumpInvalidatesWarmV2 is the same invalidation rule
// exercised against the v2→v3 bump (the core-model axis plus the
// PrefetchLateCycles and mid-walk TLB timing fixes): a v2 entry must
// miss cleanly under the current salt, while traces — keyed by
// trace.FormatVersion, not StatsVersion — survive the bump, so a warm
// trace store still spares the re-interpretation even though every
// cell retimes.
func TestStatsVersionBumpInvalidatesWarmV2(t *testing.T) {
	if sim.StatsVersion < 3 {
		t.Fatalf("sim.StatsVersion = %d; the core axis and timing fixes require the v3 bump", sim.StatsVersion)
	}
	const v2Salt = "sim-stats-v2"
	if DefaultSalt() == v2Salt {
		t.Fatalf("DefaultSalt() = %q still the v2 salt", DefaultSalt())
	}

	dir := t.TempDir()
	req := traceReq()
	res, err := core.Run(req.Workload, req.System, req.Variant, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	tr := recordReq(t, req)

	v2, err := OpenSalted(dir, v2Salt)
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.Put(req, res); err != nil {
		t.Fatal(err)
	}
	if err := v2.PutTrace(req, tr); err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.Get(req); !ok {
		t.Fatal("v2 store does not hit its own entry")
	}

	// The same directory at the current version: the warm v2 result is
	// invisible (the cell recomputes under the fixed timing model), but
	// the recorded trace — whose bytes carry no timing — still hits.
	cur, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Get(req); ok {
		t.Fatalf("v2 entry still hits under %s after the StatsVersion bump", DefaultSalt())
	}
	if _, ok := cur.GetTrace(req); !ok {
		t.Error("trace entry lost across the StatsVersion bump; trace keys must not carry the stats salt")
	}

	// The old objects are not destroyed — keys moved, data stayed.
	back, err := OpenSalted(dir, v2Salt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Get(req); !ok {
		t.Fatal("v2 entry lost after opening the store at the current version")
	}
}

// TestKeySensitivityCoreModel: the core-model axis is part of the
// machine configuration, so it must be part of the key — distinct from
// the empty legacy resolution and from every other model.
func TestKeySensitivityCoreModel(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   uarch.Haswell(),
		Variant:  core.VariantPlain,
	}
	seen := map[string]string{s.Key(base): "default"}
	for _, name := range sim.CoreModels() {
		req := base
		req.System = uarch.WithCoreModel(base.System, name)
		key := s.Key(req)
		if prev, dup := seen[key]; dup {
			t.Errorf("core=%s collides with %s", name, prev)
		}
		seen[key] = name
	}
	if len(seen) != 1+len(sim.CoreModels()) {
		t.Errorf("expected %d distinct keys, got %d", 1+len(sim.CoreModels()), len(seen))
	}
}

// TestKeySensitivityHWPrefetcher: the hardware-prefetcher axis is part
// of the machine configuration, so it must be part of the key. The five
// models key apart, and a preset, which names its own model, keys
// exactly like that model selected explicitly: one cell, one key.
func TestKeySensitivityHWPrefetcher(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := sweep.Request{
		Workload: workloads.Tiny()[0],
		System:   uarch.Haswell(),
		Variant:  core.VariantPlain,
	}
	seen := map[string]string{}
	for _, name := range []string{"none", "stride", "nextline", "ghb", "imp"} {
		req := base
		req.System = uarch.WithHWPrefetcher(base.System, name)
		key := s.Key(req)
		if prev, dup := seen[key]; dup {
			t.Errorf("hwpf=%s collides with %s", name, prev)
		}
		seen[key] = name
	}
	if len(seen) != 5 {
		t.Errorf("expected 5 distinct keys, got %d", len(seen))
	}
	if name := seen[s.Key(base)]; name != "stride" {
		t.Errorf("the Haswell preset keys like hwpf=%q, want stride", name)
	}
}
