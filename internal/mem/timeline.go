package mem

// Golden site timeline: the probe events of one fault-free run, kept so that
// a single-bit fault's fate — did its site hold reachable state at the
// injection cycle, and what first touches it afterwards — is a lookup, not a
// faulty simulation. Until that first event the faulty machine equals the
// golden one except in the site itself, so the golden run's events are the
// ones the faulty run would see. A recording cache or TLB probe (rec non-nil)
// logs where a fault's probe would report. An event is 16 bits, its cycle
// within an epoch of 1<<epochShift cycles over evShift bits of detail; every
// epoch is sealed, as it ends, into one flat array behind per-site offsets.
const (
	evShift    = 6
	evMask     = 1<<evShift - 1
	epochShift = 10
)

// MaxTimelineCycles bounds the golden runs worth a timeline: it takes some
// thirty bytes per committed instruction.
const MaxTimelineCycles = 1 << 22

// SiteFate is what a timeline knows of one site injected at cycle t.
type SiteFate struct {
	Live  bool       // the site held reachable state at t
	Cycle uint64     // the first event after t, 0 for none
	Event ProbeEvent // what it was
}

// Erased reports a first event that kills the site rather than reads it.
func (f SiteFate) Erased() bool {
	return f.Cycle != 0 && f.Event != ProbeRead && f.Event != ProbeWriteback
}

// SiteEvents is the event log of one array.
type SiteEvents struct {
	clock  *uint64    // the recording machine's cycle counter; nil once sealed
	log    []uint32   // the current epoch's entries, site<<16 | event, in run order
	last   []uint32   // per site, 1 + the index in log of its latest entry
	epochs [][]uint16 // sealed: where each site's events begin (and one more), then the events; nil if none
}

// NewSiteEvents starts a log over the given number of sites.
func NewSiteEvents(clock *uint64, sites int) SiteEvents {
	return SiteEvents{clock: clock, last: make([]uint32, sites)}
}

// Add logs an event on site at the current cycle; a repeat of the site's
// latest entry is dropped.
func (s *SiteEvents) Add(site int, detail uint32) {
	for len(s.epochs) < int(*s.clock>>epochShift) {
		s.sealEpoch()
	}
	e := uint32(site)<<16 | uint32(*s.clock)<<evShift&0xffff | detail
	if i := s.last[site]; i == 0 || s.log[i-1] != e {
		s.log = append(s.log, e)
		s.last[site] = uint32(len(s.log))
	}
}

// sealEpoch buckets the epoch's log by site — a counting sort, so every site
// keeps its run order — and starts the next.
func (s *SiteEvents) sealEpoch() {
	if len(s.log) >= 1<<16 {
		panic("mem: more timeline events in an epoch than its 16-bit offsets hold")
	}
	var block []uint16
	if n := len(s.last) + 1; len(s.log) > 0 {
		block = make([]uint16, n+len(s.log))
		for _, e := range s.log {
			block[e>>16+1]++
		}
		for i := range s.last {
			block[i+1] += block[i]
			s.last[i] = uint32(n) + uint32(block[i])
		}
		for _, e := range s.log {
			block[s.last[e>>16]] = uint16(e)
			s.last[e>>16]++
		}
		clear(s.last)
		s.log = s.log[:0]
	}
	s.epochs = append(s.epochs, block)
}

// Seal ends the recording and returns the log's size in bytes.
func (s *SiteEvents) Seal() (bytes uint64) {
	for len(s.epochs) <= int(*s.clock>>epochShift) {
		s.sealEpoch()
	}
	s.clock, s.log = nil, nil
	for _, block := range s.epochs {
		bytes += 24 + 2*uint64(len(block))
	}
	return bytes
}

// Scan hands f the cycle and detail of the site's events after cycle t,
// through the epoch of cycle until, in run order — or, with until below t,
// of those up to t, latest first — for as long as f returns true.
func (s *SiteEvents) Scan(site int, t, until uint64, f func(cycle uint64, detail uint32) bool) {
	step, sites := 1, len(s.last)+1
	if until < t {
		step = -1
	}
	for e := int(t >> epochShift); e >= 0 && e < len(s.epochs) && (step < 0 || e <= int(until>>epochShift)); e += step {
		if s.epochs[e] == nil {
			continue
		}
		b := s.epochs[e][sites:][s.epochs[e][site]:s.epochs[e][site+1]]
		for i := range b {
			if step < 0 {
				i = len(b) - 1 - i
			}
			if c := uint64(e)<<epochShift | uint64(b[i]>>evShift); (c > t) == (step > 0) && !f(c, uint32(b[i]&evMask)) {
				return
			}
		}
	}
}

// Seen reports whether site had an event by cycle t.
func (s *SiteEvents) Seen(site int, t uint64) (seen bool) {
	s.Scan(site, t, 0, func(uint64, uint32) bool {
		seen = true
		return false
	})
	return seen
}

// CacheTimeline is one cache's history: per aligned grain of the data array,
// its reads, writes and evictions. An event's detail is its ProbeEvent over
// the node, in the binary tree that halves the grain three times (1 the whole
// grain, 8+k its k-th eighth), of the aligned range it covers. A line is
// valid from its first event on: a fill is followed by the access that
// missed, and a golden line never turns invalid again. Per way, the tag
// log holds the lookups of a tag one bit b away from the way's (tagNear+b)
// and the evictions (ProbeEvictClean, ProbeWriteback), in run order.
type CacheTimeline struct {
	grains SiteEvents
	tags   SiteEvents
	grain  uint64 // bytes per site
	set    uint64 // grains per set
	line   uint64 // bytes per line
	per    uint64 // bits per tag entry, the dirty and valid bits on top
}

// tagNear is the tag log's detail of a lookup one bit away from the way's
// tag, bit 0; the ProbeEvents lie below it.
const tagNear = 8

// RecordTimeline arms c to log its events against clock. No access may be
// narrower than an eighth of grain, which must divide the line: 8 under a
// core, the line size of the caches above under those.
func (c *Cache) RecordTimeline(clock *uint64, grain int) *CacheTimeline {
	if c.cfg.tagBits() > evMask+1-tagNear {
		panic("mem: " + c.cfg.Name + ": tags too wide for a timeline event's detail")
	}
	tl := &CacheTimeline{grains: NewSiteEvents(clock, len(c.data)/grain), tags: NewSiteEvents(clock, len(c.tags)),
		grain: uint64(grain), set: uint64(c.cfg.Ways * c.cfg.LineBytes / grain), line: uint64(c.cfg.LineBytes),
		per: c.cfg.TagEntryBits()}
	c.probe = &LineProbe{rec: tl}
	return tl
}

// Seal ends the recording and returns the timeline's size in bytes.
func (tl *CacheTimeline) Seal() uint64 { return tl.grains.Seal() + tl.tags.Seal() }

func (tl *CacheTimeline) data(flat, off, n uint64, ev ProbeEvent) {
	g := (flat*tl.line + off) / tl.grain
	if n < tl.grain {
		tl.grains.Add(int(g), uint32(ev)<<4|uint32(tl.grain/n+off%tl.grain/n))
		return
	}
	for ; n > 0; n, g = n-tl.grain, g+1 {
		tl.grains.Add(int(g), uint32(ev)<<4|1)
	}
}

func (tl *CacheTimeline) validAt(flat, t uint64) bool {
	for g := flat * tl.line / tl.grain; g < (flat+1)*tl.line/tl.grain; g++ {
		if tl.grains.Seen(int(g), t) {
			return true
		}
	}
	return false
}

// TagFate is the fate of a tag-array bit: live when valid in either world.
// A tag bit b is read by the first hit on its way, lookup of the tag with b
// flipped, or dirty eviction (a writeback to the address the tag names), and
// erased by a clean eviction, whichever comes first: no other lookup can
// tell the worlds apart, and the victim a miss picks depends on the valid
// bits and the replacement state alone. The way's tag log orders the
// lookups and the evictions; a hit is a data access on one of the line's
// grains ahead of any eviction, which every grain logs. The valid and dirty
// bits are read by the next access to the set, which compares every valid
// bit, fills only after that, and ends on the data of one of its lines.
func (tl *CacheTimeline) TagFate(bit, t, until uint64) SiteFate {
	flat, b := bit/tl.per, bit%tl.per
	f := SiteFate{Live: b == tl.per-1 || tl.validAt(flat, t)}
	if b < tl.per-2 {
		tl.tags.Scan(int(flat), t, until, func(c uint64, d uint32) bool {
			if c > until {
				return false
			}
			if d >= tagNear && d != tagNear+uint32(b) {
				return true
			}
			f.Cycle, f.Event = c, ProbeRead
			if d < tagNear {
				f.Event = ProbeEvent(d)
			}
			return false
		})
		for g := flat * tl.line / tl.grain; g < (flat+1)*tl.line/tl.grain; g++ {
			tl.grains.Scan(int(g), t, until, func(c uint64, d uint32) bool {
				// A hit in the cycle of an eviction came first if it is
				// its grain's first event.
				if ev := ProbeEvent(d >> 4); (ev == ProbeRead || ev == ProbeOverwrite) && c <= until && (f.Cycle == 0 || c <= f.Cycle) {
					f.Cycle, f.Event = c, ProbeRead
				}
				return false
			})
		}
		return f
	}
	first := flat * tl.line / tl.grain / tl.set * tl.set
	for g := first; g < first+tl.set; g++ {
		tl.grains.Scan(int(g), t, until, func(c uint64, _ uint32) bool {
			if c <= until {
				f.Cycle, until = c, c-1
			}
			return false
		})
	}
	return f
}

// DataFate is the fate of a data-array bit: the first read, covering write
// or eviction of its byte.
func (tl *CacheTimeline) DataFate(bit, t, until uint64) SiteFate {
	b := bit / 8
	f := SiteFate{Live: tl.validAt(b/tl.line, t)}
	tl.grains.Scan(int(b/tl.grain), t, until, func(c uint64, d uint32) bool {
		for leaf := 8 + uint32(b%tl.grain*8/tl.grain); leaf > 0 && f.Cycle == 0 && c <= until; leaf >>= 1 {
			if leaf == d&15 {
				f.Cycle, f.Event = c, ProbeEvent(d>>4)
			}
		}
		return f.Cycle == 0 && c <= until
	})
	return f
}

// TLBTimeline is one TLB's history: per entry, the lookups it served
// (ProbeRead) and its refills (ProbeOverwrite), the first of which makes it
// valid for good; and every refill once more on a last site of its own, the
// victim scans.
type TLBTimeline struct{ SiteEvents }

// RecordTimeline arms t to log its events against clock.
func (t *TLB) RecordTimeline(clock *uint64) *TLBTimeline {
	tl := &TLBTimeline{NewSiteEvents(clock, len(t.entries)+1)}
	t.probe = &TLBProbe{rec: tl}
	return tl
}

// Fate is the fate of a TLB bit. A flip that makes the entry serve another
// page — a vpn bit of a valid entry, the valid bit of an invalid one — is
// read by lookups the golden run resolved elsewhere; it is reported as read
// at once, which leaves the fault to its own probe.
func (tl *TLBTimeline) Fate(bit, t, until uint64) SiteFate {
	i, b, scans := int(bit/TLBEntryBits), bit%TLBEntryBits, len(tl.last)-1
	valid, validBit := tl.Seen(i, t), b == TLBEntryBits-1
	if valid && b >= tlbVPNShift && !validBit || !valid && validBit {
		return SiteFate{Live: true, Cycle: t + 1}
	}
	f := SiteFate{Live: valid}
	first := func(c uint64, d uint32) bool {
		if c <= until {
			f.Event, f.Cycle, until = ProbeEvent(d), c, c
		}
		return false
	}
	if !valid {
		return f
	}
	tl.Scan(i, t, until, first)
	if validBit {
		// The cleared valid bit is read by every victim scan, the one
		// that refills the entry itself included.
		tl.Scan(scans, t, until, first)
		f.Event = ProbeRead
	}
	return f
}
