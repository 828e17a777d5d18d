package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

func testConfig() HierarchyConfig {
	return HierarchyConfig{
		RAMSize:     1 << 20,
		L1I:         CacheConfig{Name: "L1I", Sets: 64, Ways: 2, LineBytes: 64, HitLat: 1, AddrBits: 20},
		L1D:         CacheConfig{Name: "L1D", Sets: 64, Ways: 2, LineBytes: 64, HitLat: 2, AddrBits: 20},
		L2:          CacheConfig{Name: "L2", Sets: 128, Ways: 8, LineBytes: 64, HitLat: 10, AddrBits: 20},
		ITLBEntries: 8, DTLBEntries: 8, WalkLat: 20, DRAMLat: 60,
	}
}

func TestRAMBlockOps(t *testing.T) {
	r := NewRAM(4096)
	if r.Size() != 4096 {
		t.Fatalf("size = %d", r.Size())
	}
	r.WriteBlock(100, []byte{1, 2, 3, 4})
	dst := make([]byte, 4)
	r.ReadBlock(100, dst)
	if !bytes.Equal(dst, []byte{1, 2, 3, 4}) {
		t.Errorf("read back % x", dst)
	}
}

func TestPageTableWalk(t *testing.T) {
	pt := NewPageTable(1 << 20)
	if pt.NumPages() != 256 {
		t.Fatalf("pages = %d", pt.NumPages())
	}
	if ppn, ok := pt.Walk(10); !ok || ppn != 10 {
		t.Errorf("identity walk failed: %d %v", ppn, ok)
	}
	if _, ok := pt.Walk(256); ok {
		t.Error("walk beyond RAM should fail")
	}
}

func TestTLBHitMiss(t *testing.T) {
	pt := NewPageTable(1 << 20)
	tlb := NewTLB("DTLB", 4, 20)
	pa, lat, f := tlb.Translate(0x12345, pt)
	if f != FaultNone || pa != 0x12345 || lat != 20 {
		t.Fatalf("first access: pa=%#x lat=%d f=%v", pa, lat, f)
	}
	pa, lat, f = tlb.Translate(0x12349, pt)
	if f != FaultNone || pa != 0x12349 || lat != 0 {
		t.Fatalf("hit: pa=%#x lat=%d f=%v", pa, lat, f)
	}
	if tlb.Accesses != 2 || tlb.Misses != 1 {
		t.Errorf("stats: %d/%d", tlb.Misses, tlb.Accesses)
	}
}

func TestTLBPageFault(t *testing.T) {
	pt := NewPageTable(1 << 20)
	tlb := NewTLB("DTLB", 4, 20)
	if _, _, f := tlb.Translate(1<<20+4, pt); f != FaultPage {
		t.Errorf("expected page fault, got %v", f)
	}
}

func TestTLBReplacement(t *testing.T) {
	pt := NewPageTable(1 << 20)
	tlb := NewTLB("DTLB", 2, 20)
	for p := uint64(0); p < 4; p++ {
		tlb.Translate(p*PageBytes, pt)
	}
	// All four pages were walked; with 2 entries at least 2 misses beyond
	// the compulsory ones occurred.
	if tlb.Misses != 4 {
		t.Errorf("misses = %d, want 4 (no reuse)", tlb.Misses)
	}
	tlb.Translate(3*PageBytes, pt) // most recent fill must still hit
	if tlb.Misses != 4 {
		t.Errorf("recently filled page missed")
	}
}

func TestTLBBitFlipCorruptsTranslation(t *testing.T) {
	pt := NewPageTable(1 << 20)
	tlb := NewTLB("DTLB", 1, 20)
	tlb.Translate(0, pt) // fill vpn 0 -> ppn 0
	// Flip PPN bit 7: translation of page 0 now points at page 128.
	tlb.FlipBit(7)
	pa, lat, f := tlb.Translate(8, pt)
	if f != FaultNone || lat != 0 {
		t.Fatalf("unexpected fault/lat: %v %d", f, lat)
	}
	if pa != 128*PageBytes+8 {
		t.Errorf("corrupted translation pa=%#x", pa)
	}
	// Flip a high PPN bit so the page exceeds RAM: page fault on use.
	tlb.FlipBit(11)
	if _, _, f := tlb.Translate(8, pt); f != FaultPage {
		t.Errorf("expected page fault from corrupted PPN, got %v", f)
	}
	// Flip the valid bit off: next access misses and refills correctly.
	tlb.FlipBit(24)
	pa, lat, f = tlb.Translate(8, pt)
	if f != FaultNone || pa != 8 || lat != 20 {
		t.Errorf("refill after valid-flip: pa=%#x lat=%d f=%v", pa, lat, f)
	}
}

func TestTLBBitCount(t *testing.T) {
	tlb := NewTLB("ITLB", 16, 20)
	if tlb.BitCount() != 16*25 {
		t.Errorf("BitCount = %d, want %d", tlb.BitCount(), 16*25)
	}
}

func newTestCacheOverRAM(lat uint64) (*Cache, *RAM) {
	ram := NewRAM(1 << 20)
	c := NewCache(CacheConfig{Name: "C", Sets: 4, Ways: 2, LineBytes: 16, HitLat: 1, AddrBits: 20},
		&RAMLevel{RAM: ram, ReadLat: lat})
	return c, ram
}

func TestCacheReadThrough(t *testing.T) {
	c, ram := newTestCacheOverRAM(50)
	ram.WriteBlock(0x100, []byte{0xAA, 0xBB})
	buf := make([]byte, 2)
	lat := c.Access(0x100, 2, false, buf)
	if lat != 51 {
		t.Errorf("miss latency = %d, want 51", lat)
	}
	if buf[0] != 0xAA || buf[1] != 0xBB {
		t.Errorf("data = % x", buf)
	}
	lat = c.Access(0x100, 2, false, buf)
	if lat != 1 {
		t.Errorf("hit latency = %d, want 1", lat)
	}
	if c.Accesses != 2 || c.Misses != 1 {
		t.Errorf("stats %d/%d", c.Misses, c.Accesses)
	}
}

func TestCacheWriteBack(t *testing.T) {
	c, ram := newTestCacheOverRAM(50)
	c.Access(0x200, 1, true, []byte{0x5A})
	if ram.Bytes()[0x200] == 0x5A {
		t.Fatal("write-back cache must not write through")
	}
	// Evict set of 0x200 by touching two other lines mapping to it.
	// Set index bits are addr[5:4] with 4 sets of 16-byte lines.
	c.Access(0x200+1024, 1, false, make([]byte, 1))
	c.Access(0x200+2048, 1, false, make([]byte, 1))
	if ram.Bytes()[0x200] != 0x5A {
		t.Error("dirty line not written back on eviction")
	}
	if c.Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Writebacks)
	}
}

func TestCacheFlush(t *testing.T) {
	c, ram := newTestCacheOverRAM(50)
	c.Access(0x300, 1, true, []byte{0x77})
	c.Flush()
	if ram.Bytes()[0x300] != 0x77 {
		t.Error("flush did not write back")
	}
	// Second flush is a no-op (dirty cleared).
	wb := c.Writebacks
	c.Flush()
	if c.Writebacks != wb {
		t.Error("flush wrote back clean lines")
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	c, _ := newTestCacheOverRAM(50)
	// Three lines mapping to set 0 with 2 ways: A, B, A, C -> B evicted.
	a, b2, c3 := uint64(0x000), uint64(0x400), uint64(0x800)
	buf := make([]byte, 1)
	c.Access(a, 1, false, buf)
	c.Access(b2, 1, false, buf)
	c.Access(a, 1, false, buf)
	c.Access(c3, 1, false, buf)
	misses := c.Misses
	c.Access(a, 1, false, buf) // must still hit
	if c.Misses != misses {
		t.Error("LRU evicted the recently used line")
	}
	c.Access(b2, 1, false, buf) // must miss
	if c.Misses != misses+1 {
		t.Error("expected miss on evicted line")
	}
}

func TestCacheDataBitFlipVisible(t *testing.T) {
	c, _ := newTestCacheOverRAM(50)
	c.Access(0, 1, true, []byte{0x00})
	// The line for addr 0 is in set 0; find which way holds it by
	// flipping bit 0 of both ways' first bytes and reading back.
	c.DataArray().FlipBit(0) // way 0, byte 0, bit 0
	buf := make([]byte, 1)
	c.Access(0, 1, false, buf)
	if buf[0] != 0x01 {
		// The line may be in way 1.
		c.DataArray().FlipBit(uint64(c.Config().LineBytes) * 8)
		c.Access(0, 1, false, buf)
		if buf[0] != 0x01 {
			t.Errorf("data flip not visible: %#x", buf[0])
		}
	}
}

func TestCacheTagBitFlipCausesMissAndRefill(t *testing.T) {
	c, ram := newTestCacheOverRAM(50)
	ram.WriteBlock(0x40, []byte{0xCD})
	buf := make([]byte, 1)
	c.Access(0x40, 1, false, buf) // fill clean line
	// Flip tag bit 0 of every way in its set; subsequent access misses
	// and refills the correct data from RAM (hardware masking).
	per := c.cfg.TagEntryBits()
	set, _, _ := c.split(0x40)
	for w := 0; w < c.Config().Ways; w++ {
		c.TagArray().FlipBit(uint64(set*c.Config().Ways+w) * per)
	}
	misses := c.Misses
	c.Access(0x40, 1, false, buf)
	if c.Misses != misses+1 {
		t.Error("corrupted tag should cause a miss")
	}
	if buf[0] != 0xCD {
		t.Errorf("refill returned %#x", buf[0])
	}
}

func TestCacheDirtyTagFlipWritesBackToWrongAddress(t *testing.T) {
	c, ram := newTestCacheOverRAM(50)
	c.Access(0x40, 1, true, []byte{0xEE}) // dirty line at 0x40, set 0...
	set, tag, _ := c.split(0x40)
	base := set * c.Config().Ways
	way := -1
	for w := 0; w < c.Config().Ways; w++ {
		if c.tags[base+w]&c.valid != 0 && c.tags[base+w]&c.tmask == tag {
			way = w
		}
	}
	if way < 0 {
		t.Fatal("line not found")
	}
	// Flip tag bit 0 of that way: the dirty line now names a different
	// address and will be written back there on flush.
	c.TagArray().FlipBit(uint64(base+way) * c.cfg.TagEntryBits())
	c.Flush()
	wrong := c.lineAddr(set, (tag ^ 1))
	if ram.Bytes()[wrong] != 0xEE {
		t.Errorf("writeback went to %#x? wrong-addr byte=%#x", wrong, ram.Bytes()[wrong])
	}
	if ram.Bytes()[0x40] == 0xEE {
		t.Error("original address should have stale data")
	}
}

func TestCacheBitCounts(t *testing.T) {
	c, _ := newTestCacheOverRAM(50)
	// 4 sets x 2 ways: tagBits = 20-2-4 = 14, +2 for valid/dirty.
	if got := c.TagArray().BitCount(); got != 8*16 {
		t.Errorf("tag bits = %d, want 128", got)
	}
	if got := c.DataArray().BitCount(); got != 4*2*16*8 {
		t.Errorf("data bits = %d", got)
	}
}

// TestCacheActsAsMemory drives random accesses through a tiny cache and
// checks, after a final flush, that RAM matches a flat reference model.
func TestCacheActsAsMemory(t *testing.T) {
	c, ram := newTestCacheOverRAM(50)
	ref := make([]byte, 1<<12)
	rng := rand.New(rand.NewSource(42))
	sizes := []uint64{1, 2, 4, 8}
	for i := 0; i < 20000; i++ {
		n := sizes[rng.Intn(len(sizes))]
		addr := (uint64(rng.Intn(len(ref))) / n) * n
		if rng.Intn(2) == 0 {
			buf := make([]byte, n)
			rng.Read(buf)
			c.Access(addr, n, true, buf)
			copy(ref[addr:], buf)
		} else {
			buf := make([]byte, n)
			c.Access(addr, n, false, buf)
			if !bytes.Equal(buf, ref[addr:addr+n]) {
				t.Fatalf("read mismatch at %#x: got % x want % x", addr, buf, ref[addr:addr+n])
			}
		}
	}
	c.Flush()
	if !bytes.Equal(ram.Bytes()[:len(ref)], ref) {
		t.Fatal("RAM does not match reference after flush")
	}
}

func TestDirtyLinesInRange(t *testing.T) {
	c, _ := newTestCacheOverRAM(50)
	if c.Lines() != 8 {
		t.Fatalf("lines = %d", c.Lines())
	}
	// Four distinct sets (sets = line index mod 4, 16-byte lines).
	c.Access(0x100, 1, true, []byte{1})  // set 0, dirty, inside range
	c.Access(0x520, 1, true, []byte{1})  // set 2, dirty, outside range
	c.Access(0x110, 1, false, []byte{0}) // set 1, clean
	c.Access(0x130, 1, false, []byte{0}) // set 3, clean
	if got := c.DirtyLinesInRange(0x100, 0x400); got != 1 {
		t.Errorf("in range = %d, want 1", got)
	}
	if got := c.DirtyLinesInRange(0, 0x10000); got != 2 {
		t.Errorf("all = %d, want 2", got)
	}
	if got := c.DirtyLinesInRange(0x300, 0x400); got != 0 {
		t.Errorf("empty range = %d", got)
	}
	// Observation must not perturb statistics.
	acc := c.Accesses
	c.DirtyLinesInRange(0, 0x10000)
	if c.Accesses != acc {
		t.Error("DirtyLinesInRange counted as an access")
	}
}

func TestHierarchyFetchLoadStore(t *testing.T) {
	h := NewHierarchy(testConfig())
	h.RAM.WriteBlock(0x1000, []byte{0x78, 0x56, 0x34, 0x12})
	w, lat, f := h.FetchWord(0x1000)
	if f != FaultNone || w != 0x12345678 {
		t.Fatalf("fetch: %#x %v", w, f)
	}
	if lat == 0 {
		t.Error("cold fetch should have nonzero latency")
	}
	_, lat2, _ := h.FetchWord(0x1000)
	if lat2 >= lat {
		t.Error("warm fetch should be faster")
	}
	if lat, f := h.Store(0x2000, 8, 0xDEADBEEFCAFEF00D); f != FaultNone || lat == 0 {
		t.Fatalf("store: %d %v", lat, f)
	}
	v, _, f := h.Load(0x2000, 8)
	if f != FaultNone || v != 0xDEADBEEFCAFEF00D {
		t.Fatalf("load: %#x %v", v, f)
	}
	v, _, _ = h.Load(0x2004, 4)
	if v != 0xDEADBEEF {
		t.Errorf("partial load: %#x", v)
	}
}

func TestHierarchyAlignmentFaults(t *testing.T) {
	h := NewHierarchy(testConfig())
	if _, _, f := h.FetchWord(0x1002); f != FaultAlign {
		t.Error("misaligned fetch should fault")
	}
	if _, _, f := h.Load(0x1001, 4); f != FaultAlign {
		t.Error("misaligned load should fault")
	}
	if _, f := h.Store(0x1004, 8, 0); f != FaultAlign {
		t.Error("misaligned 8-byte store should fault")
	}
}

func TestHierarchyPageFault(t *testing.T) {
	h := NewHierarchy(testConfig())
	if _, _, f := h.Load(1<<20, 4); f != FaultPage {
		t.Errorf("expected page fault, got %v", f)
	}
}

func TestHierarchyDrainOutput(t *testing.T) {
	h := NewHierarchy(testConfig())
	out := []byte("hello avgi")
	for i, b := range out {
		h.Store(0x40000+uint64(i), 1, uint64(b))
	}
	h.Store(0x3FFF8, 8, uint64(len(out)))
	got := h.DrainOutput(0x40000, 0x3FFF8, 8)
	if !bytes.Equal(got, out) {
		t.Errorf("drained %q", got)
	}
}

func TestHierarchyDrainOutputBoundsClamp(t *testing.T) {
	h := NewHierarchy(testConfig())
	h.Store(0x3FFF8, 8, 1<<40) // absurd length from a corrupted run
	got := h.DrainOutput(0x40000, 0x3FFF8, 8)
	if uint64(len(got)) != h.RAM.Size()-0x40000 {
		t.Errorf("clamped length = %d", len(got))
	}
	// Near-2^64 lengths must not overflow outBase+n (regression: a
	// corrupted run once stored ^uint64(0) and panicked the drain).
	h.Store(0x3FFF8, 8, ^uint64(0))
	got = h.DrainOutput(0x40000, 0x3FFF8, 8)
	if uint64(len(got)) != h.RAM.Size()-0x40000 {
		t.Errorf("overflow clamp length = %d", len(got))
	}
	// An out-of-RAM base yields no output at all.
	if h.DrainOutput(h.RAM.Size()+4096, 0x3FFF8, 8) != nil {
		t.Error("out-of-RAM base should drain nothing")
	}
}

func TestPrefetchI(t *testing.T) {
	h := NewHierarchy(testConfig())
	h.RAM.WriteBlock(0x2000, []byte{0x11, 0x22, 0x33, 0x44})
	h.PrefetchI(0x2004) // prefetch the line containing 0x2000
	_, lat, f := h.FetchWord(0x2000)
	if f != FaultNone {
		t.Fatal(f)
	}
	if lat != h.Cfg.L1I.HitLat {
		t.Errorf("fetch after prefetch lat = %d, want hit %d", lat, h.Cfg.L1I.HitLat)
	}
	// Unmapped prefetches are dropped silently.
	h.PrefetchI(8 << 20)
}

func TestFaultString(t *testing.T) {
	if FaultNone.String() != "none" || FaultPage.String() != "page fault" || FaultAlign.String() != "alignment fault" {
		t.Error("fault strings")
	}
	if Fault(9).String() == "" {
		t.Error("unknown fault string empty")
	}
}
