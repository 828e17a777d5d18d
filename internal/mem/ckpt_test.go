package mem

import (
	"bytes"
	"sync"
	"testing"
)

func TestRAMSnapshotCOWIsolation(t *testing.T) {
	r := NewRAM(4 * PageBytes)
	r.WriteBlock(100, []byte{1, 2, 3, 4})
	snap := r.Snapshot(nil)

	// Writes after the snapshot privatize pages and must not leak into it.
	r.WriteBlock(100, []byte{9, 9, 9, 9})
	if r.CowPrivatized() == 0 {
		t.Error("post-snapshot write did not privatize a page")
	}
	dst := make([]byte, 4)
	snap.ReadBlock(100, dst)
	if !bytes.Equal(dst, []byte{1, 2, 3, 4}) {
		t.Errorf("snapshot sees % x after source write", dst)
	}

	// Restoring rewinds the source to the captured contents.
	r.RestoreFrom(snap)
	r.ReadBlock(100, dst)
	if !bytes.Equal(dst, []byte{1, 2, 3, 4}) {
		t.Errorf("restored RAM reads % x", dst)
	}

	// And the restored RAM privatizes again before its next write.
	r.WriteBlock(100, []byte{7})
	snap.ReadBlock(100, dst)
	if dst[0] != 1 {
		t.Error("write after restore leaked into snapshot")
	}
}

func TestRAMSnapshotWriteCrossingPages(t *testing.T) {
	r := NewRAM(4 * PageBytes)
	snap := r.Snapshot(nil)
	// A block write straddling a page boundary must privatize both pages.
	data := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	r.WriteBlock(PageBytes-2, data)
	if got := r.CowPrivatized(); got != 2 {
		t.Errorf("privatized %d pages, want 2", got)
	}
	dst := make([]byte, 4)
	r.ReadBlock(PageBytes-2, dst)
	if !bytes.Equal(dst, data) {
		t.Errorf("read back % x", dst)
	}
	snap.ReadBlock(PageBytes-2, dst)
	if !bytes.Equal(dst, make([]byte, 4)) {
		t.Errorf("snapshot corrupted: % x", dst)
	}
}

func TestRAMSnapshotReuse(t *testing.T) {
	r := NewRAM(4 * PageBytes)
	r.WriteBlock(0, []byte{1})
	snap := r.Snapshot(nil)
	r.WriteBlock(0, []byte{2})
	// Re-snapshotting into the same buffer captures the new contents.
	snap = r.Snapshot(snap)
	var b [1]byte
	snap.ReadBlock(0, b[:])
	if b[0] != 2 {
		t.Errorf("reused snapshot reads %d, want 2", b[0])
	}

	defer func() {
		if recover() == nil {
			t.Error("snapshot reuse across sizes should panic")
		}
	}()
	NewRAM(8 * PageBytes).Snapshot(snap)
}

func TestRAMRestoreSizeMismatchPanics(t *testing.T) {
	snap := NewRAM(4 * PageBytes).Snapshot(nil)
	defer func() {
		if recover() == nil {
			t.Error("restore across sizes should panic")
		}
	}()
	NewRAM(8 * PageBytes).RestoreFrom(snap)
}

func TestTLBSnapshotRestore(t *testing.T) {
	pt := NewPageTable(1 << 20)
	tl := NewTLB("DTLB", 4, 20)
	tl.Translate(0x1000, pt)
	tl.Translate(0x2000, pt)
	var snap tlbState
	n := tl.sync(&snap, true, false)

	tl.Translate(0x5000, pt)
	tl.FlipBit(3)
	tl.sync(&snap, false, false)

	if tl.Accesses != 2 || tl.Misses != 2 {
		t.Errorf("restored stats %d/%d, want 2/2", tl.Accesses, tl.Misses)
	}
	// The captured translations hit again; state matches a fresh replay.
	if _, lat, f := tl.Translate(0x1000, pt); f != FaultNone || lat != 0 {
		t.Errorf("post-restore translate lat=%d fault=%v", lat, f)
	}
	if n == 0 {
		t.Error("TLB capture reports zero bytes")
	}
}

func TestCacheSnapshotRestore(t *testing.T) {
	ram := NewRAM(1 << 20)
	ram.WriteBlock(0x100, []byte{0x42})
	c := NewCache(CacheConfig{Name: "L1D", Sets: 4, Ways: 2, LineBytes: 64, HitLat: 2, AddrBits: 20},
		&RAMLevel{RAM: ram, ReadLat: 60})

	var buf [1]byte
	c.Access(0x100, 1, false, buf[:])
	c.Access(0x200, 1, true, []byte{0x77}) // leave a dirty line
	var snap cacheSnap
	n := c.sync(&snap, true, false)
	accesses, misses := c.Accesses, c.Misses

	c.Access(0x300, 1, false, buf[:])
	c.TagArray().FlipBit(1)
	c.sync(&snap, false, false)

	if c.Accesses != accesses || c.Misses != misses {
		t.Errorf("restored stats %d/%d, want %d/%d", c.Accesses, c.Misses, accesses, misses)
	}
	c.Access(0x200, 1, false, buf[:])
	if buf[0] != 0x77 {
		t.Errorf("dirty data after restore = %#x", buf[0])
	}
	if n == 0 {
		t.Error("cache capture reports zero bytes")
	}

	defer func() {
		if recover() == nil {
			t.Error("restore across geometries should panic")
		}
	}()
	NewCache(CacheConfig{Name: "X", Sets: 8, Ways: 2, LineBytes: 64, HitLat: 1, AddrBits: 20},
		&RAMLevel{RAM: ram, ReadLat: 60}).sync(&snap, false, false)
}

func TestHierarchySnapshotRestoreRoundTrip(t *testing.T) {
	h := NewHierarchy(testConfig())
	h.Store(0x5000, 8, 111)
	h.Store(0x6000, 8, 222)
	snap := h.Snapshot(nil)
	if snap.Bytes() == 0 {
		t.Error("hierarchy snapshot reports zero bytes")
	}

	// Diverge: overwrite memory, pollute caches and TLBs, flip a bit.
	h.Store(0x5000, 8, 999)
	h.Store(0x7000, 8, 333)
	h.FetchWord(0x8000)
	h.L1D.DataArray().FlipBit(17)

	h.Restore(snap)
	if v, _, _ := h.Load(0x5000, 8); v != 111 {
		t.Errorf("restored load(0x5000) = %d", v)
	}
	if v, _, _ := h.Load(0x6000, 8); v != 222 {
		t.Errorf("restored load(0x6000) = %d", v)
	}
	if v, _, _ := h.Load(0x7000, 8); v != 0 {
		t.Errorf("post-snapshot store survived restore: %d", v)
	}
}

// TestHierarchySnapshotSharedRestore exercises the concurrency contract:
// one immutable snapshot, many machines restoring from it and running in
// parallel. Run under -race this verifies restores never write shared state.
func TestHierarchySnapshotSharedRestore(t *testing.T) {
	golden := NewHierarchy(testConfig())
	golden.Store(0x5000, 8, 111)
	snap := golden.Snapshot(nil)
	golden.Store(0x5000, 8, 999) // source keeps running after capture

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHierarchy(testConfig())
			for i := 0; i < 8; i++ {
				h.Restore(snap)
				if v, _, _ := h.Load(0x5000, 8); v != 111 {
					t.Errorf("worker %d sees %d", w, v)
					return
				}
				h.Store(0x5000, 8, uint64(w)) // private divergence
			}
		}(w)
	}
	wg.Wait()
}
