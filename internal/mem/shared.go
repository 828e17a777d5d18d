package mem

import (
	"fmt"
	"math/bits"
)

// SharedMem is the memory spine of a multi-core machine: one physical RAM
// and one unified L2 shared by every core, with per-core private L1s and
// TLBs assembled into per-core Hierarchy views.
//
// Physical layout: each core owns a private RAMSize-byte window at
// core_index × RAMSize, mapped by its page table (virtual space per core is
// [0, RAMSize), so programs, the SP convention and output regions are
// unchanged from the single-core machine). The address space grows by
// ceil(log2(cores)) bits, so the shared L2's and the private L1s' tag
// fields widen by the same amount — without that, two cores' homonymous
// lines would alias in the tag match. RAM backs the whole grown address
// space (RAMSize << coreBits bytes) so that corrupted tags and TLB entries
// can reach any line a writeback could name, including the other core's
// window — the cross-core escape path a shared L2 makes physically real.
type SharedMem struct {
	// Cfg is the per-core geometry as configured (AddrBits pre-growth).
	Cfg   HierarchyConfig
	Cores int

	RAM      *RAM
	L2       *Cache
	ramLevel *RAMLevel

	hiers []*Hierarchy
}

// NewSharedMem builds the shared spine and cores per-core hierarchy views
// for a cores-core machine.
func NewSharedMem(cfg HierarchyConfig, cores int) *SharedMem {
	if cores < 2 {
		panic(fmt.Sprintf("mem: shared memory needs >= 2 cores, got %d", cores))
	}
	coreBits := bits.Len(uint(cores - 1))
	totalSize := cfg.RAMSize << coreBits
	if totalSize/PageBytes > 1<<pageNumBits {
		panic(fmt.Sprintf("mem: %d cores x %d bytes exceeds the %d-bit TLB page-number field",
			cores, cfg.RAMSize, pageNumBits))
	}

	s := &SharedMem{Cfg: cfg, Cores: cores}
	s.RAM = NewRAM(totalSize)
	s.ramLevel = &RAMLevel{RAM: s.RAM, ReadLat: cfg.DRAMLat}

	l2cfg := cfg.L2
	l2cfg.AddrBits += coreBits
	s.L2 = NewCache(l2cfg, s.ramLevel)

	for k := 0; k < cores; k++ {
		hcfg := cfg
		hcfg.L1I.AddrBits += coreBits
		hcfg.L1D.AddrBits += coreBits
		hcfg.L2 = l2cfg
		base := uint64(k) * cfg.RAMSize
		pt := NewPageTableAt(cfg.RAMSize, base/PageBytes, totalSize/PageBytes)
		h := newCoreView(hcfg, base, pt, s.ramLevel, s.L2)
		s.hiers = append(s.hiers, h)
	}
	return s
}

// CoreHierarchy returns core k's view of the memory system: private L1s and
// TLBs over the shared L2 and RAM.
func (s *SharedMem) CoreHierarchy(k int) *Hierarchy { return s.hiers[k] }

// Clone deep-copies the whole shared memory system: the RAM and L2 are
// cloned once, and every per-core hierarchy is rebuilt over the clones.
func (s *SharedMem) Clone() *SharedMem {
	c := &SharedMem{Cfg: s.Cfg, Cores: s.Cores}
	c.RAM = s.RAM.Clone()
	c.ramLevel = &RAMLevel{RAM: c.RAM, ReadLat: s.ramLevel.ReadLat}
	c.L2 = s.L2.Clone()
	c.L2.SetLower(c.ramLevel)
	for _, h := range s.hiers {
		c.hiers = append(c.hiers, h.cloneView(c.ramLevel, c.L2))
	}
	return c
}
