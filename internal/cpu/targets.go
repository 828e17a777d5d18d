package cpu

import (
	"fmt"
	"strings"

	"avgi/internal/mem"
)

// Structure is one row of the fault-target table: a structure of the paper's
// Table II, the array its name denotes, and what the methodology needs to
// know of it. The table is the one place a name is bound to an array:
// Target, ArmProbe and Timeline.Fate look the name up once and follow the
// row.
type Structure struct {
	Name string
	// Queue marks a queue's slots: a slot holds state only while allocated,
	// so a flip on a free one is masked, and the structure's effective
	// residency is a share of the run (Table II's relative ERT windows).
	Queue bool
	// Cache marks a cache array, the one kind of site the flush at the halt
	// can reach.
	Cache bool
	// ESC marks the arrays that hold dirty data on its way to the program
	// output, the only places an escaped fault can arise (Section IV.D).
	ESC bool

	kind probeKind // the core array; probeMem for a TLB or a cache array
	unit int       // probeMem: the TLB (ITLB, DTLB) or, with Cache, the cache (L1I, L1D, L2)
	tag  bool      // a cache's tag array rather than its data array
	bits uint64    // bits per core site or TLB entry, on top of a data word with word
	word bool
}

// structures is the fault-target table, in Table II order. The queue
// surfaces model the control fields GeFIN injects into.
var structures = [...]Structure{
	{Name: "RF", kind: probeReg, word: true},
	{Name: "DTLB", unit: 1, bits: mem.TLBEntryBits},
	{Name: "ITLB", unit: 0, bits: mem.TLBEntryBits},
	{Name: "L1I (Data)", Cache: true, unit: 0},
	{Name: "L1D (Tag)", Cache: true, ESC: true, unit: 1, tag: true},
	{Name: "ROB", Queue: true, kind: probeROB, bits: 36},           // pc(20) destArch(6) destPhys(7) flags(3)
	{Name: "SQ", Queue: true, kind: probeSQ, bits: 32, word: true}, // addr(20) size(4) robTag(8), data
	{Name: "LQ", Queue: true, kind: probeLQ, bits: 32},             // addr(20) size(4) robTag(8)
	{Name: "L1I (Tag)", Cache: true, unit: 0, tag: true},
	{Name: "L2 (Tag)", Cache: true, ESC: true, unit: 2, tag: true},
	{Name: "L1D (Data)", Cache: true, ESC: true, unit: 1},
	{Name: "L2 (Data)", Cache: true, ESC: true, unit: 2},
}

// StructureNames lists the twelve fault-target structures in the order the
// paper's Table II presents them.
var StructureNames = func() []string {
	names := make([]string, len(structures))
	for i, s := range structures {
		names[i] = s.Name
	}
	return names
}()

// StructureNamed returns the table row of a structure; ok is false for a
// name that is none of the twelve.
func StructureNamed(name string) (Structure, bool) {
	for i := range structures {
		if structures[i].Name == name {
			return structures[i], true
		}
	}
	return Structure{}, false
}

// ValidateStructure returns a descriptive error for structure names that
// are not one of the twelve Table II fault targets.
func ValidateStructure(name string) error {
	if _, ok := StructureNamed(name); !ok {
		return fmt.Errorf("unknown structure %q (known: %s)", name, strings.Join(StructureNames, ", "))
	}
	return nil
}

// geometry returns how many sites the structure has on a machine of
// configuration cfg — registers, queue slots, TLB entries or cache lines —
// and how many bits each holds.
func (s *Structure) geometry(cfg *Config) (sites int, bits uint64) {
	if s.Cache {
		c := [...]*mem.CacheConfig{&cfg.Mem.L1I, &cfg.Mem.L1D, &cfg.Mem.L2}[s.unit]
		if bits = uint64(c.LineBytes) * 8; s.tag {
			bits = c.TagEntryBits()
		}
		return c.Sets * c.Ways, bits
	}
	if bits = s.bits; s.word {
		bits += uint64(cfg.Variant.Width())
	}
	if s.kind == probeMem {
		return [...]int{cfg.Mem.ITLBEntries, cfg.Mem.DTLBEntries}[s.unit], bits
	}
	return [...]int{probeReg: cfg.PhysRegs, probeROB: cfg.ROBSize, probeLQ: cfg.LQSize, probeSQ: cfg.SQSize}[s.kind], bits
}

// memArrays returns the machine's TLBs and caches, numbered as a row's unit
// numbers them.
func (m *Machine) memArrays() ([2]*mem.TLB, [3]*mem.Cache) {
	h := m.Mem
	return [2]*mem.TLB{h.ITLB, h.DTLB}, [3]*mem.Cache{h.L1I, h.L1D, h.L2}
}

// slot returns the injected flag of slot i of queue kind, nil while the
// slot is free.
func (m *Machine) slot(kind probeKind, i int) *bool {
	switch {
	case kind == probeROB && m.rob[i].used:
		return &m.rob[i].injected
	case kind == probeLQ && m.lqs[i].used:
		return &m.lqs[i].injected
	case kind == probeSQ && m.sqs[i].used:
		return &m.sqs[i].injected
	}
	return nil
}

// Target is a fault-injectable hardware structure: an array of bits. The
// twelve structures of the paper's study all implement it.
type Target interface {
	BitCount() uint64
	FlipBit(i uint64)
}

// coreTarget is a core array: the physical register file's values, or a
// queue's control fields.
type coreTarget struct {
	m           *Machine
	kind        probeKind
	sites, bits uint64
}

// BitCount implements Target.
func (t coreTarget) BitCount() uint64 { return t.sites * t.bits }

// FlipBit implements Target. A register flip propagates architecturally:
// dependent instructions read the flipped value. A flip on a live queue slot
// is detected by the shadow integrity check when the entry commits (machine
// check / PRE); one on a free slot is overwritten at the next allocation
// (hardware masking).
func (t coreTarget) FlipBit(i uint64) {
	site := int(i / t.bits)
	switch injected := t.m.slot(t.kind, site); {
	case t.kind == probeReg:
		t.m.prf[site] ^= 1 << (i % t.bits)
		t.m.Stats.FlipsArmed++
	case injected != nil:
		*injected = true
		t.m.Stats.FlipsArmed++
	default:
		t.m.Stats.FlipsMasked++
	}
}

// countingTarget wraps a memory-system target so FlipBit feeds the
// machine's masking-source counters. SRAM arrays hold live data for the
// whole run, so every flip counts as armed.
type countingTarget struct {
	m *Machine
	Target
}

// FlipBit implements Target.
func (t countingTarget) FlipBit(i uint64) {
	t.m.Stats.FlipsArmed++
	t.Target.FlipBit(i)
}

// Target returns one structure by name, or nil if unknown.
func (m *Machine) Target(name string) Target {
	s, ok := StructureNamed(name)
	tlbs, caches := m.memArrays()
	switch {
	case !ok:
		return nil
	case s.Cache && s.tag:
		return countingTarget{m, caches[s.unit].TagArray()}
	case s.Cache:
		return countingTarget{m, caches[s.unit].DataArray()}
	case s.kind == probeMem:
		return countingTarget{m, tlbs[s.unit]}
	}
	sites, bits := s.geometry(&m.Cfg)
	return coreTarget{m, s.kind, uint64(sites), bits}
}
