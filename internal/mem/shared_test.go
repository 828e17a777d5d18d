package mem

import "testing"

func testHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		RAMSize:     1 << 20,
		L1I:         CacheConfig{Name: "L1I", Sets: 8, Ways: 2, LineBytes: 64, HitLat: 1, AddrBits: 20},
		L1D:         CacheConfig{Name: "L1D", Sets: 32, Ways: 2, LineBytes: 64, HitLat: 2, AddrBits: 20},
		L2:          CacheConfig{Name: "L2", Sets: 128, Ways: 8, LineBytes: 64, HitLat: 12, AddrBits: 20},
		ITLBEntries: 16,
		DTLBEntries: 16,
		WalkLat:     20,
		DRAMLat:     60,
	}
}

// TestSharedMemWindows checks the multicore physical layout: per-core
// windows are disjoint, translations add the core base, and DrainOutput
// reads the right window.
func TestSharedMemWindows(t *testing.T) {
	cfg := testHierarchyConfig()
	s := NewSharedMem(cfg, 2)

	h0, h1 := s.CoreHierarchy(0), s.CoreHierarchy(1)
	if h0.Base() != 0 || h1.Base() != cfg.RAMSize {
		t.Fatalf("bases = %#x, %#x; want 0, %#x", h0.Base(), h1.Base(), cfg.RAMSize)
	}
	if s.RAM.Size() != 2*cfg.RAMSize {
		t.Fatalf("shared RAM size = %#x, want %#x", s.RAM.Size(), 2*cfg.RAMSize)
	}

	// Same virtual address, different physical windows.
	if _, fault := h0.Store(0x1000, 8, 0x1111); fault != FaultNone {
		t.Fatalf("c0 store fault: %v", fault)
	}
	if _, fault := h1.Store(0x1000, 8, 0x2222); fault != FaultNone {
		t.Fatalf("c1 store fault: %v", fault)
	}
	v0, _, _ := h0.Load(0x1000, 8)
	v1, _, _ := h1.Load(0x1000, 8)
	if v0 != 0x1111 || v1 != 0x2222 {
		t.Fatalf("loads = %#x, %#x; want 0x1111, 0x2222", v0, v1)
	}

	// The shared L2 is literally shared.
	if h0.L2 != s.L2 || h1.L2 != s.L2 {
		t.Fatal("per-core hierarchies do not share the L2")
	}
	// Private L1s are not.
	if h0.L1D == h1.L1D || h0.L1I == h1.L1I {
		t.Fatal("per-core L1s are shared")
	}

	// The grown tag field keeps homonymous lines distinct: after the
	// flushes both values must land in the right physical windows.
	h0.L1D.Flush()
	h1.L1D.Flush()
	s.L2.Flush()
	var buf [8]byte
	s.RAM.ReadBlock(0x1000, buf[:])
	if got := uint64LE(buf[:]); got != 0x1111 {
		t.Fatalf("c0 window holds %#x, want 0x1111", got)
	}
	s.RAM.ReadBlock(cfg.RAMSize+0x1000, buf[:])
	if got := uint64LE(buf[:]); got != 0x2222 {
		t.Fatalf("c1 window holds %#x, want 0x2222", got)
	}

	// Per-core virtual spaces stay [0, RAMSize): the last in-window page
	// maps, one past it faults.
	if _, _, fault := h1.Load(cfg.RAMSize-8, 8); fault != FaultNone {
		t.Fatalf("c1 top-of-window load fault: %v", fault)
	}
	if _, _, fault := h1.Load(cfg.RAMSize, 8); fault != FaultPage {
		t.Fatalf("c1 out-of-window load fault = %v, want page fault", fault)
	}
}

// TestSharedMemClone checks that cloning a shared spine severs all state
// sharing with the original.
func TestSharedMemClone(t *testing.T) {
	cfg := testHierarchyConfig()
	s := NewSharedMem(cfg, 2)
	s.CoreHierarchy(0).Store(0x40, 8, 0xaaaa)
	s.CoreHierarchy(1).Store(0x40, 8, 0xbbbb)

	c := s.Clone()
	c.CoreHierarchy(0).Store(0x40, 8, 0xcccc)

	v, _, _ := s.CoreHierarchy(0).Load(0x40, 8)
	if v != 0xaaaa {
		t.Fatalf("original c0 sees %#x after clone write, want 0xaaaa", v)
	}
	v, _, _ = c.CoreHierarchy(0).Load(0x40, 8)
	if v != 0xcccc {
		t.Fatalf("clone c0 sees %#x, want 0xcccc", v)
	}
	v, _, _ = c.CoreHierarchy(1).Load(0x40, 8)
	if v != 0xbbbb {
		t.Fatalf("clone c1 sees %#x, want 0xbbbb", v)
	}
}
