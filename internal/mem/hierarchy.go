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

// Hierarchy is the assembled memory system: split L1s over a unified L2
// over RAM, with per-side TLBs and an identity page table.
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
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	rl := &RAMLevel{RAM: NewRAM(cfg.RAMSize), ReadLat: cfg.DRAMLat}
	l2 := NewCache(cfg.L2, rl)
	return &Hierarchy{
		Cfg: cfg, RAM: rl.RAM, PageTable: NewPageTable(cfg.RAMSize), ramLevel: rl, L2: l2,
		ITLB: NewTLB("ITLB", cfg.ITLBEntries, cfg.WalkLat),
		DTLB: NewTLB("DTLB", cfg.DTLBEntries, cfg.WalkLat),
		L1I:  NewCache(cfg.L1I, l2),
		L1D:  NewCache(cfg.L1D, l2),
	}
}

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
	h.RAM.ReadBlock(outLenAddr, buf[:lenBytes])
	n := uint64LE(buf[:lenBytes])
	// A faulty run can leave an arbitrary (even near-2^64) length word;
	// clamp without overflowing outBase+n.
	if outBase >= h.RAM.Size() {
		return nil
	}
	if max := h.RAM.Size() - outBase; n > max {
		n = max
	}
	out := make([]byte, n)
	h.RAM.ReadBlock(outBase, out)
	return out
}

// HierarchySnap is an immutable capture of the entire memory system. The
// cache and TLB arrays are copied (they are small); RAM is captured as a
// copy-on-write fork, so the capture cost is pointer-sized per page rather
// than the full RAM image. A chained capture (SnapshotAfter) copies only
// what changed since its predecessor and shares the rest. A snapshot is
// never mutated after Snapshot returns and may be restored from by any
// number of machines concurrently.
type HierarchySnap struct {
	ram    *RAM
	tlbs   [2]tlbState  // index-parallel with Hierarchy.parts
	caches [3]cacheSnap // likewise
	size   uint64       // bytes the snapshot owns, from its capture
	frozen bool         // in a chain (SnapshotAfter): shares storage, so never captured into
}

// parts lists the hierarchy's array components: the one list copying, delta
// tracking and byte accounting walk (NewHierarchy names them too).
func (h *Hierarchy) parts() ([2]*TLB, [3]*Cache) {
	return [2]*TLB{h.ITLB, h.DTLB}, [3]*Cache{h.L1I, h.L1D, h.L2}
}

// sync moves the whole memory system between the hierarchy and a snapshot
// (see Cache.sync): RAM forks or adopts pages copy-on-write either way, and
// every part copies its arrays whole or, with delta, only what was touched.
// Returns the bytes moved, counting the RAM fork (see forkBytes) but not
// the shared page contents.
func (h *Hierarchy) sync(snap *HierarchySnap, capture, delta bool) uint64 {
	if capture {
		if snap.frozen {
			panic("mem: capture into a snapshot a chain shares")
		}
		snap.ram = h.RAM.Snapshot(snap.ram)
	} else {
		h.RAM.RestoreFrom(snap.ram)
	}
	n := snap.ram.forkBytes()
	tlbs, caches := h.parts()
	for i, t := range tlbs {
		n += t.sync(&snap.tlbs[i], capture, delta)
	}
	for i, c := range caches {
		n += c.sync(&snap.caches[i], capture, delta)
	}
	if capture && !delta {
		snap.size = n
	}
	return n
}

// Snapshot captures the memory system into snap, reusing its buffers (nil
// allocates fresh ones), and returns it. The source hierarchy keeps
// running afterwards: its RAM privatizes pages on subsequent writes.
func (h *Hierarchy) Snapshot(snap *HierarchySnap) *HierarchySnap {
	if snap == nil {
		snap = &HierarchySnap{}
	}
	h.sync(snap, true, false)
	return snap
}

// SnapshotAfter captures the memory system into a new snapshot chained to
// prev, which must be the capture at the hierarchy's last sync point (delta
// tracking on since): the cache sets and TLB arrays written since are
// copied where they changed, everything else points at prev's storage, and
// with no page privatized since the RAM fork is prev's too. Both snapshots
// are frozen: neither may be captured into again, so the sharing needs no
// reference counts. The capture is the new sync point.
func (h *Hierarchy) SnapshotAfter(prev *HierarchySnap) *HierarchySnap {
	snap := &HierarchySnap{frozen: true}
	prev.frozen = true
	if h.RAM.forkOf(prev.ram) {
		snap.ram = prev.ram
	} else {
		snap.ram = h.RAM.Snapshot(nil)
		snap.size = snap.ram.forkBytes()
	}
	tlbs, caches := h.parts()
	for i, t := range tlbs {
		snap.size += t.chain(&snap.tlbs[i], &prev.tlbs[i])
	}
	for i, c := range caches {
		snap.size += c.chain(&snap.caches[i], &prev.caches[i])
	}
	return snap
}

// Restore rewinds the hierarchy to a snapshot of its own geometry in place:
// cache and TLB contents are copied into the existing arrays and RAM adopts
// the snapshot's pages copy-on-write. No allocation, and object identity
// (RAM, cache and level pointers) is preserved.
func (h *Hierarchy) Restore(snap *HierarchySnap) { h.sync(snap, false, false) }

// SyncSnapshot re-captures into snap only the state touched since the last
// sync point: touched cache sets and TLB entries are copied, RAM is
// re-forked. snap must be a full capture of this hierarchy from the current
// sync lineage. Returns the bytes copied.
func (h *Hierarchy) SyncSnapshot(snap *HierarchySnap) uint64 { return h.sync(snap, true, true) }

// SyncRestore rewinds only the state touched since the last sync point back
// to snap's contents; bit-identical to a full Restore under the sync
// invariant. Returns the bytes copied.
func (h *Hierarchy) SyncRestore(snap *HierarchySnap) uint64 { return h.sync(snap, false, true) }

// Bytes returns the storage the snapshot owns: the arrays it copied, its
// per-set cache tables and the page-pointer table of its RAM fork, not what
// it shares with a predecessor in a chain.
func (s *HierarchySnap) Bytes() uint64 { return s.size }

// BeginDeltaTracking starts dirty-delta tracking on every cache and TLB,
// establishing the current state as a sync point. RAM needs no tracking:
// its copy-on-write pages already privatize at write granularity.
func (h *Hierarchy) BeginDeltaTracking() {
	h.eachPart((*TLB).BeginDeltaTracking, (*Cache).BeginDeltaTracking)
}

// EndDeltaTracking stops dirty-delta tracking everywhere.
func (h *Hierarchy) EndDeltaTracking() {
	h.eachPart((*TLB).EndDeltaTracking, (*Cache).EndDeltaTracking)
}

func (h *Hierarchy) eachPart(tlb func(*TLB), cache func(*Cache)) {
	tlbs, caches := h.parts()
	for _, t := range tlbs {
		tlb(t)
	}
	for _, c := range caches {
		cache(c)
	}
}

func uint64LE(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}
