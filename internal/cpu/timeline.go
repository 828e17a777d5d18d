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
	f := mem.SiteFate{Live: tl.liveAt(kind, site, t)}
	tl.core[kind].Scan(int(site), t, until, func(c uint64, d uint32) bool {
		if ev := mem.ProbeEvent(d); ev < mem.ProbeAlloc && c <= until {
			f.Cycle, f.Event = c, ev
		}
		return mem.ProbeEvent(d) >= mem.ProbeAlloc
	})
	return f
}

// liveAt reports whether a core site holds reachable state at cycle t, after
// that cycle's events.
func (tl *Timeline) liveAt(kind probeKind, site, t uint64) bool {
	// A register mapped at cycle 0 is off the free list from the start.
	live := kind == probeReg && int(site) < tl.cfg.Variant.NumArchRegs()
	tl.core[kind].Scan(int(site), t, 0, func(_ uint64, d uint32) bool {
		ev := mem.ProbeEvent(d)
		live = nextLive(kind, live, ev)
		return kind == probeReg && ev < mem.ProbeAlloc
	})
	return live
}

// nextLive is a core site's liveness after event ev. A queue slot is in use
// from its allocation to its next event; a register from leaving the free
// list to rejoining it, whatever reads and writebacks it meets in between.
func nextLive(kind probeKind, live bool, ev mem.ProbeEvent) bool {
	if kind == probeReg && ev < mem.ProbeAlloc {
		return live
	}
	return ev == mem.ProbeAlloc || kind != probeReg && ev == mem.ProbeOverwrite
}

// Census counts the (site, cycle) pairs of an array by the fate Fate gives
// a fault injected there; every bit of a core site shares its site's fate.
type Census struct {
	Dead, Untouched, Erased, ReadFirst uint64
}

// ReadFirstShare is the share of the pairs whose first event reads the site:
// the only faults that can reach the program, so an upper bound on the AVF.
func (c Census) ReadFirstShare() float64 {
	return float64(c.ReadFirst) / float64(c.Dead+c.Untouched+c.Erased+c.ReadFirst)
}

// Census counts every (site, t), t in [1, end], of a core array by what
// Fate(structure, ·, t, end) answers: dead, untouched, erased or read
// first. Between two events on a site the answer is constant, so one pass
// over each site's events suffices. ok is false for a cache or TLB array.
func (tl *Timeline) Census(structure string, end uint64) (c Census, ok bool) {
	s, _ := StructureNamed(structure)
	if s.Cache || s.kind == probeMem {
		return c, false
	}
	sites, _ := s.geometry(&tl.cfg)
	for site := uint64(0); site < uint64(sites); site++ {
		// Cycles [1, from) are counted or pending: dead and held are the
		// pending ones, dead or live, whose first event is still ahead.
		live, from := tl.liveAt(s.kind, site, 1), uint64(1)
		var dead, held uint64
		upTo := func(cyc uint64) {
			if live {
				held += cyc - from
			} else {
				dead += cyc - from
			}
			from = cyc
		}
		settle := func(fate *uint64) {
			c.Dead += dead
			*fate += held
			dead, held = 0, 0
		}
		tl.core[s.kind].Scan(int(site), 1, end, func(cyc uint64, d uint32) bool {
			if cyc > end {
				return false
			}
			upTo(cyc)
			ev := mem.ProbeEvent(d)
			switch {
			case ev >= mem.ProbeAlloc:
			case (mem.SiteFate{Cycle: cyc, Event: ev}).Erased():
				settle(&c.Erased)
			default:
				settle(&c.ReadFirst)
			}
			live = nextLive(s.kind, live, ev)
			return true
		})
		upTo(end + 1)
		settle(&c.Untouched)
	}
	return c, true
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
