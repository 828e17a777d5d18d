package mem

// Fault-forensics probes for the memory-side structures (cache tag/data
// arrays and TLBs). A probe is pure observation: it watches the array
// entries covered by one injected fault and reports, through a ProbeSink,
// every event that consumes or erases the corrupted state — so the
// forensics layer (internal/forensics) can attribute the fault's fate
// (overwritten before read, evicted clean, read but logically masked, ...).
//
// Probes are armed after the flip and cleared before the faulty machine is
// rewound, never survive a Clone, and with no probe installed every access
// path takes the exact pre-forensics code (one nil check per access).

// ProbeEvent is one observed interaction with watched corrupted state.
type ProbeEvent uint8

const (
	// ProbeRead: a live watched site was consumed (tag compared, data
	// bytes read, TLB entry hit).
	ProbeRead ProbeEvent = iota
	// ProbeOverwrite: a live watched site was erased by new data (line
	// fill, covering write, TLB refill, register writeback, queue-slot
	// allocation). The site is dead afterwards.
	ProbeOverwrite
	// ProbeEvictClean: a live watched valid, clean line was dropped by a
	// replacement without its data ever leaving the cache. The site is
	// dead afterwards.
	ProbeEvictClean
	// ProbeWriteback: a live watched dirty line was written back to the
	// lower level — the corruption propagated downstream (the ESC-shaped
	// path), which forensics counts as a consumption.
	ProbeWriteback
	// ProbeSquash: a live watched queue slot was discarded by a
	// misprediction squash. The site is dead afterwards.
	ProbeSquash
	// ProbeAlloc and ProbeFree are no events to a fault's probe: a golden
	// timeline (timeline.go) logs them to know when a physical register
	// left and rejoined the free list.
	ProbeAlloc
	ProbeFree
)

// ProbeSink receives probe events. The CPU-side fault probe implements it,
// stamping each event with the current machine cycle.
type ProbeSink interface {
	ProbeEvent(ev ProbeEvent)
}

// lineSite is one watched cache entry: a flat way index (set*Ways+way)
// and, for data probes, the watched byte range within the line. A site
// dies on its first overwrite or eviction; events from dead sites are
// dropped so multi-site faults attribute each site at most once.
type lineSite struct {
	flat   int
	lo, hi int // inclusive byte range within the line; unused for tag sites
	dead   bool
}

// LineProbe watches the cache entries covered by one injected fault.
type LineProbe struct {
	sink  ProbeSink
	tag   bool // tag-array probe (vs data-array)
	sites []lineSite
	live  int // sites not yet dead

	// rec, when non-nil, makes this the cache's recording probe: every
	// hook logs into the golden timeline and watches no site.
	rec *CacheTimeline
}

// Sites returns the number of watched sites.
func (p *LineProbe) Sites() int { return len(p.sites) }

// LiveSites returns the number of watched sites not yet erased; at arm
// time that is the number of valid lines the fault actually corrupted.
func (p *LineProbe) LiveSites() int { return p.live }

// ArmTagProbe installs a probe over the tag entries covered by flipping
// width bits starting at bit (the CacheTagArray.FlipBit index space) and
// returns it. liveSites counts watched entries that held reachable state —
// an entry invalid both before and after the flip holds no reachable
// corruption until refilled. Liveness is judged against the pre-flip state
// as well as the post-flip one: a flip that clears the valid bit of a live
// line has destroyed reachable state (the line silently vanishes from the
// cache), so the site must count as live even though it now reads invalid —
// both for honest attribution and so the golden site timeline, which records
// liveness as the probe judges it, never resolves the dropped line as dead.
func (c *Cache) ArmTagProbe(bit uint64, width int, sink ProbeSink) *LineProbe {
	per := c.cfg.TagEntryBits()
	first := bit / per
	last := (bit + uint64(width) - 1) / per
	p := &LineProbe{sink: sink, tag: true}
	for flat := first; flat <= last && flat < uint64(len(c.tags)); flat++ {
		s := lineSite{flat: int(flat)}
		cur := c.tags[flat]
		pre := cur ^ entryFlipMask(bit, width, flat, per)
		if cur&c.valid == 0 && pre&c.valid == 0 {
			// Invalid in both worlds: the corrupted bits are unreachable
			// until a fill overwrites them — born dead, like a free queue
			// slot.
			s.dead = true
		} else {
			p.live++
		}
		p.sites = append(p.sites, s)
	}
	c.probe = p
	return p
}

// entryFlipMask returns the in-entry mask of the flipped bits that landed
// on entry flat, given per bits per entry — XORing it onto the post-flip
// entry value reconstructs the pre-flip state.
func entryFlipMask(bit uint64, width int, flat, per uint64) uint64 {
	lo, hi := flat*per, (flat+1)*per
	var m uint64
	for b := bit; b < bit+uint64(width); b++ {
		if b >= lo && b < hi {
			m |= 1 << (b - lo)
		}
	}
	return m
}

// ArmDataProbe installs a probe over the data bytes covered by flipping
// width bits starting at bit (the CacheDataArray.FlipBit index space).
func (c *Cache) ArmDataProbe(bit uint64, width int, sink ProbeSink) *LineProbe {
	byteLo := bit / 8
	byteHi := (bit + uint64(width) - 1) / 8
	lb := uint64(c.cfg.LineBytes)
	p := &LineProbe{sink: sink}
	for line := byteLo / lb; line <= byteHi/lb && line < uint64(c.Lines()); line++ {
		lo, hi := uint64(0), lb-1
		if line == byteLo/lb {
			lo = byteLo % lb
		}
		if line == byteHi/lb {
			hi = byteHi % lb
		}
		s := lineSite{flat: int(line), lo: int(lo), hi: int(hi)}
		if c.tags[line]&c.valid == 0 {
			s.dead = true
		} else {
			p.live++
		}
		p.sites = append(p.sites, s)
	}
	c.probe = p
	return p
}

// ClearProbe detaches any installed probe.
func (c *Cache) ClearProbe() { c.probe = nil }

// onLookup reports tag-compare reads: every access resolving in a set
// compares all its tag entries, so a live watched tag in that set was
// consumed by the hit/miss decision.
func (p *LineProbe) onLookup(ways, set int) {
	if !p.tag {
		return
	}
	for i := range p.sites {
		s := &p.sites[i]
		if !s.dead && s.flat/ways == set {
			p.sink.ProbeEvent(ProbeRead)
		}
	}
}

// onData reports data-array reads and covering overwrites on the accessed
// way. A write must cover the whole watched range to kill the site; a
// partial write leaves some corrupted bits resident, so the site stays
// live (and a write missing the watched bytes is no event at all).
func (p *LineProbe) onData(flat, off, n int, write bool) {
	if p.rec != nil {
		ev := ProbeRead
		if write {
			ev = ProbeOverwrite
		}
		p.rec.data(uint64(flat), uint64(off), uint64(n), ev)
		return
	}
	if p.tag {
		return
	}
	for i := range p.sites {
		s := &p.sites[i]
		if s.dead || s.flat != flat {
			continue
		}
		if write {
			if off <= s.lo && s.hi < off+n {
				s.dead = true
				p.live--
				p.sink.ProbeEvent(ProbeOverwrite)
			}
			continue
		}
		if off <= s.hi && s.lo < off+n {
			p.sink.ProbeEvent(ProbeRead)
		}
	}
}

// onEvict reports the fate of a watched entry displaced by a fill: a dirty
// line propagates its corruption downstream (writeback), a clean valid
// line is silently dropped, and in every case the refill overwrites both
// the tag entry and the line data, killing the site.
func (p *LineProbe) onEvict(flat int, valid, dirty bool) {
	if p.rec != nil {
		if valid && dirty {
			p.rec.data(uint64(flat), 0, p.rec.line, ProbeWriteback)
		} else if valid {
			p.rec.data(uint64(flat), 0, p.rec.line, ProbeEvictClean)
		}
		return
	}
	for i := range p.sites {
		s := &p.sites[i]
		if s.dead || s.flat != flat {
			continue
		}
		switch {
		case valid && dirty:
			p.sink.ProbeEvent(ProbeWriteback)
		case valid:
			p.sink.ProbeEvent(ProbeEvictClean)
		}
		s.dead = true
		p.live--
		p.sink.ProbeEvent(ProbeOverwrite)
	}
}

// onFlush reports dirty watched lines leaving through a halt-time flush —
// the corruption reaches physical memory (the ESC path), but the line
// stays resident and live (only its dirty bit clears).
func (p *LineProbe) onFlush(flat int) {
	for i := range p.sites {
		s := &p.sites[i]
		if !s.dead && s.flat == flat {
			p.sink.ProbeEvent(ProbeWriteback)
		}
	}
}

// tlbSite is one watched TLB entry: its value in the golden world (pre,
// before the flip) and in the faulty one (post). Until a refill kills the
// site the two machines differ in exactly these entries, so every event
// that could tell them apart is decidable from the pair.
type tlbSite struct {
	pre, post uint64
	dead      bool
}

// TLBProbe watches the TLB entries covered by one injected fault.
type TLBProbe struct {
	sink  ProbeSink
	lo    int // first watched entry
	sites []tlbSite
	liveN int

	rec *TLBTimeline // non-nil on the TLB's recording probe (see LineProbe.rec)
}

// Sites returns the number of watched entries.
func (p *TLBProbe) Sites() int { return len(p.sites) }

// LiveSites returns the number of watched entries not yet erased; at arm
// time that is the number of entries whose flip touched reachable state.
func (p *TLBProbe) LiveSites() int { return p.liveN }

// ArmProbe installs a probe over the entries covered by flipping width
// bits starting at bit (the TLB.FlipBit index space). As in ArmTagProbe, an
// entry is born dead only when invalid both before and after the flip — no
// lookup matches it and the next refill that picks it overwrites all of it.
// A flip that clears a valid bit has destroyed a reachable translation and
// one that sets it has created one, so both are live.
func (t *TLB) ArmProbe(bit uint64, width int, sink ProbeSink) *TLBProbe {
	lo := int(bit / TLBEntryBits)
	hi := int((bit + uint64(width) - 1) / TLBEntryBits)
	if hi >= len(t.entries) {
		hi = len(t.entries) - 1
	}
	p := &TLBProbe{sink: sink, lo: lo, sites: make([]tlbSite, hi-lo+1)}
	for i := range p.sites {
		s := &p.sites[i]
		s.post = t.entries[lo+i]
		s.pre = s.post ^ entryFlipMask(bit, width, uint64(lo+i), TLBEntryBits)
		if (s.pre|s.post)&tlbValidBit == 0 {
			s.dead = true
		} else {
			p.liveN++
		}
	}
	t.probe = p
	return p
}

// ClearProbe detaches any installed probe.
func (t *TLB) ClearProbe() { t.probe = nil }

// onLookup reports a translation of vpn that a live watched entry decided
// differently in the two worlds: served by the corrupted entry (hit is its
// index), or one the uncorrupted entry would have served and the corrupted
// one does not — the golden hit turned into a walk and a refill. hit is the
// entry that served the lookup, -1 for a miss.
func (p *TLBProbe) onLookup(vpn uint64, hit int) {
	if p.rec != nil {
		if hit >= 0 {
			p.rec.Add(hit, uint32(ProbeRead))
		}
		return
	}
	for i := range p.sites {
		s := &p.sites[i]
		if !s.dead && (hit == p.lo+i || tlbServes(s.pre, vpn) && !tlbServes(s.post, vpn)) {
			p.sink.ProbeEvent(ProbeRead)
		}
	}
}

// onFill reports a refill into entry victim. The invalid-first victim scan
// reads every valid bit, so while a live site's differs from golden the two
// worlds may have picked different victims: a read. A refill landing on a
// live site erases it with the value the golden run writes.
func (p *TLBProbe) onFill(victim int) {
	if p.rec != nil {
		p.rec.Add(len(p.rec.last)-1, uint32(ProbeOverwrite))
		p.rec.Add(victim, uint32(ProbeOverwrite))
		return
	}
	for i := range p.sites {
		s := &p.sites[i]
		if s.dead {
			continue
		}
		if (s.pre^s.post)&tlbValidBit != 0 {
			p.sink.ProbeEvent(ProbeRead)
		}
		if victim == p.lo+i {
			s.dead = true
			p.liveN--
			p.sink.ProbeEvent(ProbeOverwrite)
		}
	}
}
