package cpu

import (
	"fmt"
	"strings"
)

// Target is a fault-injectable hardware structure: a named array of bits.
// The twelve structures of the paper's study all implement it.
type Target interface {
	Name() string
	BitCount() uint64
	FlipBit(i uint64)
}

// Structure bit-surface widths for the queue structures. The surfaces model
// the control fields GeFIN injects into: program counter and rename tags for
// ROB entries, address/size/sequence tags for LQ entries, and
// address/size/data/sequence for SQ entries.
const (
	robEntryBits = 36 // pc(20) destArch(6) destPhys(7) flags(3)
	lqEntryBits  = 32 // addr(20) size(4) robTag(8)
)

// sqEntryBits returns the SQ surface width, which includes the store data
// and therefore depends on the variant width.
func (m *Machine) sqEntryBits() uint64 {
	return 32 + uint64(m.Cfg.Variant.Width())
}

// PRFTarget exposes the physical register file's value array.
type PRFTarget struct{ m *Machine }

// Name implements Target.
func (t *PRFTarget) Name() string { return "RF" }

// BitCount implements Target.
func (t *PRFTarget) BitCount() uint64 {
	return uint64(t.m.Cfg.PhysRegs) * uint64(t.m.Cfg.Variant.Width())
}

// FlipBit flips one bit of one physical register's value. The corruption
// propagates architecturally: dependent instructions read the flipped value.
func (t *PRFTarget) FlipBit(i uint64) {
	w := uint64(t.m.Cfg.Variant.Width())
	t.m.prf[i/w] ^= 1 << (i % w)
	t.m.Stats.FlipsArmed++
}

// ROBTarget exposes the reorder buffer's control-field surface. A flip on a
// live entry is detected by the shadow integrity check when the entry
// commits (machine check / PRE); flips on free slots are overwritten at the
// next allocation (hardware masking).
type ROBTarget struct{ m *Machine }

// Name implements Target.
func (t *ROBTarget) Name() string { return "ROB" }

// BitCount implements Target.
func (t *ROBTarget) BitCount() uint64 { return uint64(len(t.m.rob)) * robEntryBits }

// FlipBit implements Target.
func (t *ROBTarget) FlipBit(i uint64) {
	e := &t.m.rob[i/robEntryBits]
	if e.used {
		e.injected = true
		t.m.Stats.FlipsArmed++
	} else {
		t.m.Stats.FlipsMasked++
	}
}

// LQTarget exposes the load queue's control-field surface.
type LQTarget struct{ m *Machine }

// Name implements Target.
func (t *LQTarget) Name() string { return "LQ" }

// BitCount implements Target.
func (t *LQTarget) BitCount() uint64 { return uint64(len(t.m.lqs)) * lqEntryBits }

// FlipBit implements Target.
func (t *LQTarget) FlipBit(i uint64) {
	e := &t.m.lqs[i/lqEntryBits]
	if e.used {
		e.injected = true
		t.m.Stats.FlipsArmed++
	} else {
		t.m.Stats.FlipsMasked++
	}
}

// SQTarget exposes the store queue's control-field surface.
type SQTarget struct{ m *Machine }

// Name implements Target.
func (t *SQTarget) Name() string { return "SQ" }

// BitCount implements Target.
func (t *SQTarget) BitCount() uint64 {
	return uint64(len(t.m.sqs)) * t.m.sqEntryBits()
}

// FlipBit implements Target.
func (t *SQTarget) FlipBit(i uint64) {
	e := &t.m.sqs[i/t.m.sqEntryBits()]
	if e.used {
		e.injected = true
		t.m.Stats.FlipsArmed++
	} else {
		t.m.Stats.FlipsMasked++
	}
}

// StructureNames lists the twelve fault-target structures in the order the
// paper's Table II presents them.
var StructureNames = []string{
	"RF",
	"DTLB",
	"ITLB",
	"L1I (Data)",
	"L1D (Tag)",
	"ROB",
	"SQ",
	"LQ",
	"L1I (Tag)",
	"L2 (Tag)",
	"L1D (Data)",
	"L2 (Data)",
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

// Targets returns the machine's twelve fault-injectable structures keyed by
// name.
func (m *Machine) Targets() map[string]Target {
	out := make(map[string]Target, len(StructureNames))
	for _, name := range StructureNames {
		out[name] = m.Target(name)
	}
	return out
}

// Target returns one structure by name, or nil if unknown — the one place
// names are bound to arrays. A direct switch, not a map lookup: campaigns
// resolve a target once per fault, on the hot path.
func (m *Machine) Target(name string) Target {
	switch name {
	case "RF":
		return &PRFTarget{m}
	case "ROB":
		return &ROBTarget{m}
	case "LQ":
		return &LQTarget{m}
	case "SQ":
		return &SQTarget{m}
	case "ITLB":
		return countingTarget{m, m.Mem.ITLB}
	case "DTLB":
		return countingTarget{m, m.Mem.DTLB}
	case "L1I (Tag)":
		return countingTarget{m, m.Mem.L1I.TagArray()}
	case "L1I (Data)":
		return countingTarget{m, m.Mem.L1I.DataArray()}
	case "L1D (Tag)":
		return countingTarget{m, m.Mem.L1D.TagArray()}
	case "L1D (Data)":
		return countingTarget{m, m.Mem.L1D.DataArray()}
	case "L2 (Tag)":
		return countingTarget{m, m.Mem.L2.TagArray()}
	case "L2 (Data)":
		return countingTarget{m, m.Mem.L2.DataArray()}
	}
	return nil
}

// ValidateStructure returns a descriptive error for structure names that
// are not one of the twelve Table II fault targets.
func ValidateStructure(name string) error {
	for _, s := range StructureNames {
		if s == name {
			return nil
		}
	}
	return fmt.Errorf("unknown structure %q (known: %s)", name, strings.Join(StructureNames, ", "))
}
