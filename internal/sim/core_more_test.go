package sim

import (
	"testing"
	"testing/quick"
)

// TestIssueWidthBoundsIPC: over a long stream of independent ops, the
// core must sustain close to its issue width and never exceed it.
func TestIssueWidthBoundsIPC(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		cfg := testConfig()
		cfg.IssueWidth = width
		core := newIntervalCore(cfg)
		const n = 10000
		for i := 0; i < n; i++ {
			core.Op(0, 1)
		}
		ipc := float64(n) / core.Cycles()
		if ipc > float64(width)+0.01 {
			t.Errorf("width %d: IPC %.2f exceeds issue width", width, ipc)
		}
		if ipc < float64(width)*0.9 {
			t.Errorf("width %d: IPC %.2f too low for independent ops", width, ipc)
		}
	}
}

// TestDependentChainThroughput: a chain of dependent single-cycle ops
// completes at one per cycle regardless of width, on both core types.
func TestDependentChainThroughput(t *testing.T) {
	for _, ooo := range []bool{false, true} {
		cfg := testConfig()
		cfg.OutOfOrder = ooo
		cfg.IssueWidth = 4
		core := newIntervalCore(cfg)
		ready := 0.0
		const n = 1000
		for i := 0; i < n; i++ {
			ready = core.Op(ready, 1)
		}
		if ready < float64(n) {
			t.Errorf("ooo=%v: dependent chain finished in %.0f cycles, want >= %d", ooo, ready, n)
		}
		// In-order issue pays the issue slot after each stall, so up to
		// (1 + 1/width) cycles per op.
		if ready > float64(n)*1.3+100 {
			t.Errorf("ooo=%v: dependent chain took %.0f cycles, want ~%d", ooo, ready, n)
		}
	}
}

// TestMulDivLatencies: arithmetic latencies show up in value readiness.
func TestMulDivLatencies(t *testing.T) {
	cfg := testConfig()
	core := newIntervalCore(cfg)
	start := core.Cycles()
	done := core.Op(start, cfg.MulLatency)
	if done-start < float64(cfg.MulLatency) {
		t.Errorf("mul latency not applied: %.1f", done-start)
	}
}

// TestQuickClockMonotone: the core clock never moves backwards under
// any interleaving of operation kinds.
func TestQuickClockMonotone(t *testing.T) {
	err := quick.Check(func(seed int64, ops []uint8) bool {
		cfg := testConfig()
		cfg.OutOfOrder = seed%2 == 0
		core := newIntervalCore(cfg)
		prev := 0.0
		ready := 0.0
		for i, op := range ops {
			if i > 200 {
				break
			}
			addr := int64(op) * 512
			switch op % 5 {
			case 0:
				ready = core.Op(ready, 1)
			case 1:
				ready = core.Load(i, addr, ready)
			case 2:
				core.Store(i, addr, ready)
			case 3:
				core.Prefetch(i, addr, ready, true)
			case 4:
				core.Branch(ready, true)
			}
			if core.Cycles() < prev {
				return false
			}
			prev = core.Cycles()
		}
		return core.Finish() >= prev
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}
