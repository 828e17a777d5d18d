package cpu

import "avgi/internal/mem"

// Timeline is the golden site timeline of one (machine, program) pair: every
// event a fault's probe could report on any entry of the twelve structures,
// recorded once on a fault-free run (the checkpoint pass, internal/ckpt), so
// that a single-bit fault's fate until its site is first touched is a lookup
// (see internal/mem/timeline.go). The core arrays log ProbeEvents per
// register or queue slot: reads and writebacks, a register leaving
// (ProbeAlloc) and rejoining (ProbeFree) the free list, and for a queue slot
// its allocation (ProbeOverwrite), squash, and retirement (ProbeRead — the
// commit at which the machine check on an injected entry fires).
type Timeline struct {
	core  [probeSQ + 1]mem.SiteEvents // by probeKind
	tlb   [2]*mem.TLBTimeline         // ITLB, DTLB
	cache [3]*mem.CacheTimeline       // L1I, L1D, L2
	bytes uint64
	cfg   Config // the recording machine's: core sites' widths, registers mapped at cycle 0
}

// RecordTimeline arms the machine, which must be at cycle 0, to record its
// run into the returned timeline; Seal it once the run has halted. The
// recorder takes the place of a fault probe on the same nil-checked hooks,
// so a machine without one runs the code it always ran.
func (m *Machine) RecordTimeline() *Timeline {
	h, clk := m.Mem, &m.cycle
	tl := &Timeline{cfg: m.Cfg, tlb: [2]*mem.TLBTimeline{h.ITLB.RecordTimeline(clk), h.DTLB.RecordTimeline(clk)},
		cache: [3]*mem.CacheTimeline{h.L1I.RecordTimeline(clk, 8), h.L1D.RecordTimeline(clk, 8),
			h.L2.RecordTimeline(clk, min(h.Cfg.L1I.LineBytes, h.Cfg.L1D.LineBytes))}}
	for kind, n := range [...]int{probeReg: len(m.prf), probeROB: len(m.rob), probeLQ: len(m.lqs), probeSQ: len(m.sqs)} {
		tl.core[kind] = mem.NewSiteEvents(clk, n)
	}
	m.probe = &FaultProbe{m: m, kind: probeReg, rec: tl}
	return tl
}

// Seal ends the recording and makes the timeline read-only.
func (tl *Timeline) Seal() {
	for i := range tl.core {
		tl.bytes += tl.core[i].Seal()
	}
	tl.bytes += tl.tlb[0].Seal() + tl.tlb[1].Seal() + tl.cache[0].Seal() + tl.cache[1].Seal() + tl.cache[2].Seal()
}

// Bytes returns the sealed timeline's size.
func (tl *Timeline) Bytes() uint64 { return tl.bytes }

// Fate looks up the site of bit of structure, injected at cycle t: whether
// it held reachable state, and the first event on it in (t, until]. masked
// reports a flip FlipBit would have counted as FlipsMasked. bit must lie
// inside the structure.
func (tl *Timeline) Fate(structure string, bit, t, until uint64) (f mem.SiteFate, masked bool) {
	s, _ := StructureNamed(structure)
	switch {
	case s.Cache && s.tag:
		return tl.cache[s.unit].TagFate(bit, t, until), false
	case s.Cache:
		return tl.cache[s.unit].DataFate(bit, t, until), false
	case s.kind == probeMem:
		return tl.tlb[s.unit].Fate(bit, t, until), false
	}
	_, per := s.geometry(&tl.cfg)
	f = tl.coreFate(s.kind, bit/per, t, until)
	return f, s.Queue && !f.Live
}

func (tl *Timeline) coreFate(kind probeKind, site, t, until uint64) mem.SiteFate {
	// A register mapped at cycle 0 is off the free list from the start.
	f := mem.SiteFate{Live: kind == probeReg && int(site) < tl.cfg.Variant.NumArchRegs()}
	tl.core[kind].Scan(int(site), t, 0, func(_ uint64, d uint32) bool {
		// A queue slot is in use from its allocation to its next event; a
		// register's reads and writebacks leave it where it was.
		ev := mem.ProbeEvent(d)
		if kind == probeReg && ev < mem.ProbeAlloc {
			return true
		}
		f.Live = ev == mem.ProbeAlloc || kind != probeReg && ev == mem.ProbeOverwrite
		return false
	})
	tl.core[kind].Scan(int(site), t, until, func(c uint64, d uint32) bool {
		if ev := mem.ProbeEvent(d); ev < mem.ProbeAlloc && c <= until {
			f.Cycle, f.Event = c, ev
		}
		return mem.ProbeEvent(d) >= mem.ProbeAlloc
	})
	return f
}

// FactsOf returns the facts a probe armed at cycle t leaves behind on a site
// of fate f that nothing read: untouched, or with erased set killed by f's
// event, noted as a probe notes it (a clean eviction ahead of its refill).
func FactsOf(f mem.SiteFate, t uint64, erased bool) ProbeFacts {
	facts := ProbeFacts{InjectCycle: t, Sites: 1}
	if f.Live {
		facts.LiveSites = 1
	}
	if erased && f.Event == mem.ProbeEvictClean {
		facts.note(mem.ProbeEvictClean, f.Cycle)
		f.Event = mem.ProbeOverwrite
	}
	if erased {
		facts.note(f.Event, f.Cycle)
	}
	return facts
}
