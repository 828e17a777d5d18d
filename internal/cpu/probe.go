package cpu

import (
	"slices"

	"avgi/internal/mem"
)

// Fault-forensics probe for the core-side structures, and the machine-wide
// front door for arming one on any of the twelve fault targets. A probe is
// pure observation: it watches the array entries covered by one injected
// fault and records every event that consumes or erases the corrupted
// state, so the forensics layer (internal/forensics) can attribute the
// fault's fate. With m.probe nil every pipeline stage runs the exact
// pre-forensics code — the hooks are single nil checks.
//
// Lifecycle: the campaign arms the probe immediately after FlipBit and
// clears it before the faulty machine is rewound, so snapshots and
// restores never observe one; Snapshot and Restore drop it defensively.

// probeKind selects which core array a FaultProbe watches.
type probeKind uint8

const (
	probeMem probeKind = iota // cache or TLB; events arrive via mem.ProbeSink
	probeReg
	probeROB
	probeLQ
	probeSQ
)

// ProbeFacts is the raw observation record a probe accumulates over one
// faulty run. The forensics layer turns it into a cause attribution.
type ProbeFacts struct {
	// InjectCycle is the machine cycle at which the fault was injected.
	InjectCycle uint64
	// Sites is the number of watched array entries (a multi-bit fault can
	// straddle entry boundaries).
	Sites int
	// LiveSites is how many of them held reachable state at injection —
	// zero means the flip landed entirely on free/invalid entries.
	LiveSites int
	// Killed is how many live sites were later erased (overwritten,
	// squashed or evicted) before the run ended.
	Killed int

	// Reads counts consumptions of live corrupted state: operand or
	// commit-time register reads; cache tag compares that the flip could
	// decide differently — a lookup of the line's golden or flipped tag,
	// or any lookup of its set once a valid or dirty bit flipped;
	// data-byte reads, TLB hits, and dirty writebacks (corruption
	// propagating downstream).
	Reads     uint64
	FirstRead uint64 // cycle of the first consumption (0 = none)

	// Per-mechanism erasure tallies, and the first/last erasure cycles.
	Overwrites  uint64
	Squashes    uint64
	EvictsClean uint64
	Writebacks  uint64
	FirstKill   uint64
	LastKill    uint64
}

// FaultProbe watches the array entries covered by one injected fault.
type FaultProbe struct {
	m    *Machine
	kind probeKind

	// Watched index range and per-site death flags for the core arrays
	// (registers or queue slots). A site dies on its first erasure;
	// events from dead sites are dropped so each site attributes once.
	lo, hi int
	dead   []bool

	facts ProbeFacts

	// Memory-side probes (cache/TLB structures) feed events back through
	// the ProbeEvent method; the pointers let ClearProbe detach them.
	cache *mem.Cache
	tlb   *mem.TLB

	// stopOnConverge arms the early-exit termination oracle: the machine
	// stops (StatusStopped) at the end of the first cycle whose facts
	// prove convergence (see Converged).
	stopOnConverge bool

	// rec, when non-nil, makes this the recording probe of a golden site
	// timeline (timeline.go): every core hook logs and watches no site.
	rec *Timeline
}

// AnchorAt backdates the injection to cycle: a fault forked at its site's
// first use (see Timeline) is armed there, and reported from where it was
// sampled.
func (p *FaultProbe) AnchorAt(cycle uint64) { p.facts.InjectCycle = cycle }

// Facts returns the accumulated observations.
func (p *FaultProbe) Facts() ProbeFacts { return p.facts }

// EnableConvergenceStop arms the early-exit termination oracle on this
// probe: the machine stops with StatusStopped at the end of the first
// cycle whose accumulated facts prove the faulty machine's state is
// bit-identical to the golden run's — every site that latched the flip has
// been erased by golden-valued writes (register writebacks, queue
// reallocations, line refills all carry the values the golden run wrote)
// and nothing consumed the corrupted state first. From that point no
// deviation is possible, so the run's classification equals the
// full-window one. Every structure's probe hooks each consumption and each
// erasure of a live site, and for the arrays whose valid bits steer where
// the machine writes next — a cache set's tag compare, a TLB's lookup and
// victim scan — each decision the corrupted entry could have swayed is a
// read, so a site is never erased unread behind a diverged machine.
//
// Campaigns no longer arm it: the golden site timeline settles the same
// faults without a faulty cycle (campaign's resolve). Its one user is the
// benchmark's anatomy replay (bench/anatomy.go), and ROADMAP 1(a) deletes
// both together, with Converged and the stop in Machine.Tick.
func (p *FaultProbe) EnableConvergenceStop() { p.stopOnConverge = true }

// Converged is the early-exit termination predicate: the facts prove the
// fault can no longer affect the run. Nothing ever consumed a live
// corrupted site (so no deviation has been seeded into the pipeline), and
// every site that latched the flip has since been erased by golden-valued
// writes — the machine state is bit-identical to the fault-free run, so the
// remaining window cannot produce anything the full window would not.
// LiveSites == 0 (the flip landed entirely on free/invalid entries)
// converges trivially at arm time. Only the anatomy replay's stop still asks
// it (see EnableConvergenceStop).
func (f ProbeFacts) Converged() bool {
	return f.Reads == 0 && f.Killed >= f.LiveSites
}

// Converged reports whether the probe's facts so far prove convergence; the
// anatomy replay's stop is its one caller (see EnableConvergenceStop).
func (p *FaultProbe) Converged() bool { return p.facts.Converged() }

// ArmProbe installs a fate probe for a fault of the given width injected
// at bit of structure (the same index spaces as Target.FlipBit — arm after
// flipping). It returns nil for unknown structure names.
func (m *Machine) ArmProbe(structure string, bit uint64, width int) *FaultProbe {
	s, ok := StructureNamed(structure)
	if !ok {
		return nil
	}
	p := &FaultProbe{m: m, kind: s.kind, facts: ProbeFacts{InjectCycle: m.cycle}}
	tlbs, caches := m.memArrays()
	switch {
	case s.Cache:
		p.cache = caches[s.unit]
		var lp *mem.LineProbe
		if s.tag {
			lp = p.cache.ArmTagProbe(bit, width, p)
		} else {
			lp = p.cache.ArmDataProbe(bit, width, p)
		}
		p.facts.Sites, p.facts.LiveSites = lp.Sites(), lp.LiveSites()
	case s.kind == probeMem:
		p.tlb = tlbs[s.unit]
		tp := p.tlb.ArmProbe(bit, width, p)
		p.facts.Sites, p.facts.LiveSites = tp.Sites(), tp.LiveSites()
	default:
		sites, per := s.Geometry(&m.Cfg)
		p.lo, p.hi = int(bit/per), min(int((bit+uint64(width)-1)/per), sites-1)
		p.dead = make([]bool, p.hi-p.lo+1)
		p.facts.Sites = len(p.dead)
		// Queue slots that were free at injection never latched the flip
		// (FlipBit counted them FlipsMasked); they are born dead so later
		// allocations and squashes of the slot don't misattribute. A
		// register on the free list is as unreachable as a free slot:
		// rename marks it never-ready as it pops it, and nothing reads it
		// before finishDest has written it.
		free := m.freeList[:m.freeTop]
		for i := p.lo; i <= p.hi; i++ {
			if s.Queue && m.slot(s.kind, i) != nil || !s.Queue && !slices.Contains(free, uint16(i)) {
				p.facts.LiveSites++
			} else {
				p.dead[i-p.lo] = true
			}
		}
	}
	m.probe = p
	return p
}

// ClearProbe detaches the machine's fate probe, including any memory-side
// probe it installed. Must be called before the faulty machine is rewound
// or recycled.
func (m *Machine) ClearProbe() {
	if p := m.probe; p != nil {
		if p.cache != nil {
			p.cache.ClearProbe()
		}
		if p.tlb != nil {
			p.tlb.ClearProbe()
		}
	}
	m.probe = nil
}

func (f *ProbeFacts) noteRead(c uint64) {
	f.Reads++
	if f.FirstRead == 0 {
		f.FirstRead = c
	}
}

func (f *ProbeFacts) kill(c uint64) {
	f.Killed++
	if f.FirstKill == 0 || c < f.FirstKill {
		f.FirstKill = c
	}
	if c > f.LastKill {
		f.LastKill = c
	}
}

// ProbeEvent implements mem.ProbeSink, stamping memory-side events with
// the current machine cycle. Per-site death is tracked inside the memory
// probes, so every event here is from a live site.
func (p *FaultProbe) ProbeEvent(ev mem.ProbeEvent) { p.facts.note(ev, p.m.cycle) }

// note records event ev of a live site at cycle c.
func (f *ProbeFacts) note(ev mem.ProbeEvent, c uint64) {
	switch ev {
	case mem.ProbeRead:
		f.noteRead(c)
	case mem.ProbeWriteback:
		// The dirty line carried the corruption downstream — consumed.
		f.Writebacks++
		f.noteRead(c)
	case mem.ProbeOverwrite:
		f.Overwrites++
		f.kill(c)
	case mem.ProbeSquash:
		f.Squashes++
		f.kill(c)
	case mem.ProbeEvictClean:
		// The matching ProbeOverwrite from the refill does the kill.
		f.EvictsClean++
	}
}

// event reports ev on entry idx of the core array kind watches: a read, or
// an erasure that leaves the site dead.
func (p *FaultProbe) event(kind probeKind, idx int, ev mem.ProbeEvent) {
	if p.rec != nil {
		p.rec.core[kind].Add(idx, uint32(ev))
		return
	}
	if p.kind != kind || ev >= mem.ProbeAlloc || idx < p.lo || idx > p.hi || p.dead[idx-p.lo] {
		return
	}
	p.dead[idx-p.lo] = ev != mem.ProbeRead
	p.ProbeEvent(ev)
}

// onOperandRead records the register operand reads of one executing
// instruction. The kind test stays inlinable so non-register probes pay a
// single compare on this hottest hook; the source scan is out of line.
func (p *FaultProbe) onOperandRead(e *robEntry) {
	if p.kind == probeReg {
		p.operandReads(e)
	}
}

func (p *FaultProbe) operandReads(e *robEntry) {
	if e.src[0].isReg {
		p.event(probeReg, int(e.src[0].phys), mem.ProbeRead)
	}
	if e.src[1].isReg {
		p.event(probeReg, int(e.src[1].phys), mem.ProbeRead)
	}
}

// onRetire reports the head entry and its queue slots leaving at commit, and
// the register it frees. A fault's probe never sees the former on a live
// site — the machine check on the injected entry comes first — so it is the
// golden timeline's record of when that check would have fired.
func (p *FaultProbe) onRetire(rob int, e *robEntry) {
	if e.hasDest {
		p.event(probeReg, int(e.oldPhys), mem.ProbeFree)
	}
	p.event(probeROB, rob, mem.ProbeRead)
	if e.lq >= 0 {
		p.event(probeLQ, e.lq, mem.ProbeRead)
	}
	if e.sq >= 0 {
		p.event(probeSQ, e.sq, mem.ProbeRead)
	}
}
