package mem

// HierarchyConfig collects the geometry of the whole memory system.
type HierarchyConfig struct {
	RAMSize uint64

	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig

	ITLBEntries int
	DTLBEntries int
	WalkLat     uint64 // page-walk latency charged on TLB misses
	DRAMLat     uint64 // RAM read latency beyond L2
}

// Hierarchy is the assembled memory system seen by one core: split L1s over
// a unified L2 over RAM, with per-side TLBs and a linear page table. On a
// single-core machine the hierarchy owns every level; on a shared-memory
// cluster (see SharedMem) the RAM and L2 are shared between the per-core
// hierarchies and base locates this core's physical window.
type Hierarchy struct {
	Cfg HierarchyConfig

	RAM       *RAM
	PageTable *PageTable
	ITLB      *TLB
	DTLB      *TLB
	L1I       *Cache
	L1D       *Cache
	L2        *Cache

	ramLevel *RAMLevel

	// base is the physical address of this core's RAM window (always 0 on
	// a single-core hierarchy). The page table applies it to translations;
	// physical-side consumers (program loading, output DMA) add it
	// explicitly.
	base uint64
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{Cfg: cfg}
	h.RAM = NewRAM(cfg.RAMSize)
	h.PageTable = NewPageTable(cfg.RAMSize)
	h.ITLB = NewTLB("ITLB", cfg.ITLBEntries, cfg.WalkLat)
	h.DTLB = NewTLB("DTLB", cfg.DTLBEntries, cfg.WalkLat)
	h.ramLevel = &RAMLevel{RAM: h.RAM, ReadLat: cfg.DRAMLat}
	h.L2 = NewCache(cfg.L2, h.ramLevel)
	h.L1I = NewCache(cfg.L1I, h.L2)
	h.L1D = NewCache(cfg.L1D, h.L2)
	return h
}

// Base returns the physical address of this core's RAM window: 0 on a
// single-core hierarchy, core-index × RAMSize on a cluster core.
func (h *Hierarchy) Base() uint64 { return h.base }

// FetchWord reads one 32-bit instruction word through the ITLB and L1I.
func (h *Hierarchy) FetchWord(vaddr uint64) (word uint32, lat uint64, fault Fault) {
	if vaddr%4 != 0 {
		return 0, 0, FaultAlign
	}
	paddr, tlat, fault := h.ITLB.Translate(vaddr, h.PageTable)
	if fault != FaultNone {
		return 0, tlat, fault
	}
	var buf [4]byte
	clat := h.L1I.Access(paddr, 4, false, buf[:])
	return uint32(uint64LE(buf[:4])), tlat + clat, FaultNone
}

// Load reads n bytes (1, 2, 4 or 8; naturally aligned) through the DTLB and
// L1D, returning the zero-extended value.
func (h *Hierarchy) Load(vaddr, n uint64) (val uint64, lat uint64, fault Fault) {
	if vaddr%n != 0 {
		return 0, 0, FaultAlign
	}
	paddr, tlat, fault := h.DTLB.Translate(vaddr, h.PageTable)
	if fault != FaultNone {
		return 0, tlat, fault
	}
	var buf [8]byte
	clat := h.L1D.Access(paddr, n, false, buf[:n])
	return uint64LE(buf[:n]), tlat + clat, FaultNone
}

// Store writes the low n bytes of val through the DTLB and L1D.
func (h *Hierarchy) Store(vaddr, n, val uint64) (lat uint64, fault Fault) {
	if vaddr%n != 0 {
		return 0, FaultAlign
	}
	paddr, tlat, fault := h.DTLB.Translate(vaddr, h.PageTable)
	if fault != FaultNone {
		return tlat, fault
	}
	var buf [8]byte
	for i := uint64(0); i < n; i++ {
		buf[i] = byte(val >> (8 * i))
	}
	clat := h.L1D.Access(paddr, n, true, buf[:n])
	return tlat + clat, FaultNone
}

// PrefetchI fills the line containing vaddr into L1I in the background,
// charging no latency to the fetch stream. It models the next-line
// instruction prefetcher of the Cortex-A72-class front end. Prefetches of
// unmapped addresses are dropped silently.
func (h *Hierarchy) PrefetchI(vaddr uint64) {
	paddr, _, fault := h.ITLB.Translate(vaddr, h.PageTable)
	if fault != FaultNone {
		return
	}
	line := uint64(h.Cfg.L1I.LineBytes)
	var buf [4]byte
	h.L1I.Access(paddr&^(line-1), 4, false, buf[:])
}

// TranslateData exposes a data-side translation without a cache access,
// used by the store queue to pre-translate store addresses.
func (h *Hierarchy) TranslateData(vaddr uint64) (paddr uint64, lat uint64, fault Fault) {
	return h.DTLB.Translate(vaddr, h.PageTable)
}

// DrainOutput models the DMA engine reading the program's output at halt:
// all dirty lines are flushed to RAM (L1D first, then L2) and the output
// region is read directly from physical memory. Corruption sitting in dirty
// cache lines that was never re-read by the program therefore reaches the
// output — the ESC path of the paper.
//
// outLenAddr holds the output byte count (stored by the program as a
// natural-width word); outBase is the start of the output region. The
// returned slice is freshly allocated (page-granular RAM has no stable
// contiguous backing to alias).
func (h *Hierarchy) DrainOutput(outBase, outLenAddr uint64, lenBytes uint64) []byte {
	h.L1D.Flush()
	h.L2.Flush()
	var buf [8]byte
	h.RAM.ReadBlock(h.base+outLenAddr, buf[:lenBytes])
	n := uint64LE(buf[:lenBytes])
	// A faulty run can leave an arbitrary (even near-2^64) length word;
	// clamp to this core's RAM window without overflowing outBase+n.
	if outBase >= h.Cfg.RAMSize {
		return nil
	}
	if max := h.Cfg.RAMSize - outBase; n > max {
		n = max
	}
	out := make([]byte, n)
	h.RAM.ReadBlock(h.base+outBase, out)
	return out
}

// HierarchySnap is an immutable capture of the entire memory system. The
// cache and TLB arrays are copied (they are small); RAM is captured as a
// copy-on-write fork, so the capture cost is pointer-sized per page rather
// than the full RAM image. A snapshot is never mutated after Snapshot
// returns and may be restored from by any number of machines concurrently.
type HierarchySnap struct {
	ram        *RAM
	itlb, dtlb TLBSnap
	l1i, l1d   CacheSnap
	l2         CacheSnap
}

// Snapshot captures the memory system into snap, reusing its buffers (nil
// allocates fresh ones), and returns it. The source hierarchy keeps
// running afterwards: its RAM privatizes pages on subsequent writes.
func (h *Hierarchy) Snapshot(snap *HierarchySnap) *HierarchySnap {
	if snap == nil {
		snap = &HierarchySnap{}
	}
	snap.ram = h.RAM.Snapshot(snap.ram)
	h.ITLB.Snapshot(&snap.itlb)
	h.DTLB.Snapshot(&snap.dtlb)
	h.L1I.Snapshot(&snap.l1i)
	h.L1D.Snapshot(&snap.l1d)
	h.L2.Snapshot(&snap.l2)
	return snap
}

// Restore rewinds the hierarchy to a snapshot in place: cache and TLB
// contents are copied into the existing arrays and RAM adopts the
// snapshot's pages copy-on-write. No allocation, and object identity
// (RAM, cache and level pointers) is preserved. The geometry must match
// the snapshot's.
func (h *Hierarchy) Restore(snap *HierarchySnap) {
	h.RAM.RestoreFrom(snap.ram)
	h.ITLB.Restore(&snap.itlb)
	h.DTLB.Restore(&snap.dtlb)
	h.L1I.Restore(&snap.l1i)
	h.L1D.Restore(&snap.l1d)
	h.L2.Restore(&snap.l2)
}

// BeginDeltaTracking starts dirty-delta tracking on every cache and TLB,
// establishing the current state as a sync point. RAM needs no tracking:
// its copy-on-write pages already privatize at write granularity.
func (h *Hierarchy) BeginDeltaTracking() {
	h.ITLB.BeginDeltaTracking()
	h.DTLB.BeginDeltaTracking()
	h.L1I.BeginDeltaTracking()
	h.L1D.BeginDeltaTracking()
	h.L2.BeginDeltaTracking()
}

// EndDeltaTracking stops dirty-delta tracking everywhere.
func (h *Hierarchy) EndDeltaTracking() {
	h.ITLB.EndDeltaTracking()
	h.DTLB.EndDeltaTracking()
	h.L1I.EndDeltaTracking()
	h.L1D.EndDeltaTracking()
	h.L2.EndDeltaTracking()
}

// SyncSnapshot re-captures into snap only the state touched since the last
// sync point: touched cache sets and TLB entries are copied, RAM is
// re-forked copy-on-write (pointer-sized per page). snap must be a full
// capture of this hierarchy from the current sync lineage. Returns the
// bytes copied.
func (h *Hierarchy) SyncSnapshot(snap *HierarchySnap) uint64 {
	snap.ram = h.RAM.Snapshot(snap.ram)
	bytes := uint64(len(snap.ram.pages)) * 9
	bytes += h.ITLB.SyncSnapshot(&snap.itlb)
	bytes += h.DTLB.SyncSnapshot(&snap.dtlb)
	bytes += h.L1I.SyncSnapshot(&snap.l1i)
	bytes += h.L1D.SyncSnapshot(&snap.l1d)
	bytes += h.L2.SyncSnapshot(&snap.l2)
	return bytes
}

// SyncRestore rewinds only the state touched since the last sync point back
// to snap's contents; bit-identical to a full Restore under the sync
// invariant. Returns the bytes copied.
func (h *Hierarchy) SyncRestore(snap *HierarchySnap) uint64 {
	h.RAM.RestoreFrom(snap.ram)
	bytes := uint64(len(snap.ram.pages)) * 9
	bytes += h.ITLB.SyncRestore(&snap.itlb)
	bytes += h.DTLB.SyncRestore(&snap.dtlb)
	bytes += h.L1I.SyncRestore(&snap.l1i)
	bytes += h.L1D.SyncRestore(&snap.l1d)
	bytes += h.L2.SyncRestore(&snap.l2)
	return bytes
}

// Bytes returns the captured state size in bytes: the copied arrays plus
// the page-pointer table of the RAM fork (the shared page contents are
// not owned by the snapshot and are not counted).
func (s *HierarchySnap) Bytes() uint64 {
	ramPtrs := uint64(len(s.ram.pages)) * 9 // 8-byte pointer + owned flag
	return ramPtrs + s.itlb.Bytes() + s.dtlb.Bytes() +
		s.l1i.Bytes() + s.l1d.Bytes() + s.l2.Bytes()
}

// Clone deep-copies the entire memory system.
func (h *Hierarchy) Clone() *Hierarchy {
	c := &Hierarchy{Cfg: h.Cfg}
	c.RAM = h.RAM.Clone()
	c.PageTable = h.PageTable // immutable
	c.ITLB = h.ITLB.Clone()
	c.DTLB = h.DTLB.Clone()
	c.ramLevel = &RAMLevel{RAM: c.RAM, ReadLat: h.ramLevel.ReadLat}
	c.L2 = h.L2.Clone()
	c.L2.SetLower(c.ramLevel)
	c.L1I = h.L1I.Clone()
	c.L1I.SetLower(c.L2)
	c.L1D = h.L1D.Clone()
	c.L1D.SetLower(c.L2)
	return c
}

func uint64LE(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}
