package interp

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func TestMemoryAllocPlacement(t *testing.T) {
	m := NewMemory()
	a, err := m.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if b <= a+100 {
		t.Errorf("allocations overlap or touch: %d after %d", b, a)
	}
	if b-a-100 < guardGap {
		t.Errorf("guard gap too small: %d", b-a-100)
	}
	if m.BytesAllocated != 200 {
		t.Errorf("BytesAllocated = %d", m.BytesAllocated)
	}
}

func TestMemoryNegativeAllocFaults(t *testing.T) {
	m := NewMemory()
	if _, err := m.Alloc(-1); err == nil {
		t.Error("negative allocation accepted")
	}
}

// TestMemoryAllocCap: an address space refuses, with an alloc Fault,
// any allocation that would take its total past MaxAllocBytes — one
// huge request or the last of many — and counts nothing for it.
func TestMemoryAllocCap(t *testing.T) {
	m := NewMemory()
	var fault *Fault
	if _, err := m.Alloc(1 << 50); !errors.As(err, &fault) || fault.Op != ir.OpAlloc {
		t.Fatalf("2^50-byte alloc: err = %v, want an alloc Fault", err)
	}
	// Stand in for earlier allocations without making them.
	m.BytesAllocated = MaxAllocBytes - 4096
	if _, err := m.Alloc(4097); !errors.As(err, &fault) {
		t.Fatalf("alloc one byte past the cap: err = %v, want a Fault", err)
	}
	if _, err := m.Alloc(4096); err != nil {
		t.Fatalf("alloc up to the cap: %v", err)
	}
	if _, err := m.Alloc(1); err == nil {
		t.Fatal("alloc on a full address space accepted")
	}
	if m.BytesAllocated != MaxAllocBytes {
		t.Errorf("BytesAllocated = %d, want %d", m.BytesAllocated, MaxAllocBytes)
	}
}

func TestMemoryZeroSizedAlloc(t *testing.T) {
	m := NewMemory()
	base, err := m.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Valid(base, 1) {
		t.Error("zero-sized allocation readable")
	}
}

func TestMemoryStraddlingAccessFaults(t *testing.T) {
	m := NewMemory()
	base, _ := m.Alloc(10)
	// An 8-byte load starting 4 bytes before the end straddles out.
	if _, err := m.Load(base+6, ir.I64); err == nil {
		t.Error("straddling load did not fault")
	}
	if _, err := m.Load(base+2, ir.I64); err != nil {
		t.Errorf("in-bounds load faulted: %v", err)
	}
}

func TestMemoryValidWidths(t *testing.T) {
	m := NewMemory()
	base, _ := m.Alloc(8)
	if !m.Valid(base, 8) {
		t.Error("exact-fit access invalid")
	}
	if m.Valid(base, 9) {
		t.Error("over-long access valid")
	}
	if m.Valid(base-1, 1) {
		t.Error("before-start access valid")
	}
}

// TestQuickMemoryMatchesMap: random stores followed by loads must
// behave like a map of addresses to values, across widths.
func TestQuickMemoryMatchesMap(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMemory()
		const size = 4096
		base, err := m.Alloc(size)
		if err != nil {
			return false
		}
		ref := make([]byte, size)
		types := []ir.Type{ir.I8, ir.I16, ir.I32, ir.I64}
		for step := 0; step < 200; step++ {
			typ := types[r.Intn(len(types))]
			w := typ.Size()
			off := int64(r.Intn(size - int(w) + 1))
			if r.Intn(2) == 0 {
				v := int64(r.Uint64())
				if err := m.Store(base+off, v, typ); err != nil {
					return false
				}
				for i := int64(0); i < w; i++ {
					ref[off+i] = byte(v >> (8 * i))
				}
			} else {
				got, err := m.Load(base+off, typ)
				if err != nil {
					return false
				}
				var u uint64
				for i := int64(0); i < w; i++ {
					u |= uint64(ref[off+i]) << (8 * i)
				}
				var want int64
				switch typ {
				case ir.I8:
					want = int64(int8(u))
				case ir.I16:
					want = int64(int16(u))
				case ir.I32:
					want = int64(int32(u))
				default:
					want = int64(u)
				}
				if got != want {
					t.Logf("seed %d: load %s at %d = %d, want %d", seed, typ, off, got, want)
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestMemoryManyAllocationsSearchable(t *testing.T) {
	m := NewMemory()
	var bases []int64
	for i := 0; i < 200; i++ {
		b, err := m.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, b)
		if err := m.Store(b, int64(i), ir.I64); err != nil {
			t.Fatal(err)
		}
	}
	// Random-order reads hit the right segments.
	for _, i := range []int{199, 0, 57, 123, 3} {
		v, err := m.Load(bases[i], ir.I64)
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(i) {
			t.Errorf("segment %d holds %d", i, v)
		}
	}
}

// TestSnapshotDetectsChanges: the address-space digest is stable for
// identical histories, changes when any byte changes, and
// distinguishes allocation layouts — the properties the differential
// oracle (internal/gen) relies on to compare final memory images.
func TestSnapshotDetectsChanges(t *testing.T) {
	build := func() *Memory {
		m := NewMemory()
		a, _ := m.Alloc(64)
		b, _ := m.Alloc(128)
		m.Store(a+8, 42, ir.I64)
		m.Store(b, -7, ir.I32)
		return m
	}
	m1, m2 := build(), build()
	if m1.Snapshot() != m2.Snapshot() {
		t.Error("identical histories produce different snapshots")
	}
	base := m1.Snapshot()

	if err := m2.Store(m2.segs[0].base+16, 1, ir.I8); err != nil {
		t.Fatal(err)
	}
	if m2.Snapshot() == base {
		t.Error("snapshot unchanged after a one-byte store")
	}

	// A different allocation layout with the same total bytes differs.
	m3 := NewMemory()
	m3.Alloc(128)
	m3.Alloc(64)
	if m3.Snapshot() == base {
		t.Error("snapshot ignores allocation layout")
	}

	// Peek must not perturb the image.
	before := m1.Snapshot()
	m1.Peek(m1.segs[0].base, 8)
	if m1.Snapshot() != before {
		t.Error("Peek changed the snapshot")
	}
}
