package mem

import (
	"reflect"
	"testing"
)

// eventLog is a ProbeSink that keeps the events in order.
type eventLog []ProbeEvent

func (l *eventLog) ProbeEvent(ev ProbeEvent) { *l = append(*l, ev) }

// TestTLBProbeEvents pins what a TLB probe reports for each way a flipped
// entry can make the faulty TLB decide differently from the golden one. The
// golden site timeline's verdicts on ITLB and DTLB rest on exactly these: a
// site erased with no read before it must leave the TLB golden.
func TestTLBProbeEvents(t *testing.T) {
	const validBit, vpnBit0, ppnBit3 = 24, 12, 3
	for _, tc := range []struct {
		name   string
		filled []uint64 // pages translated before the flip, one entry each
		flip   uint64   // bit of the two-entry array
		live   int
		lookup uint64 // page translated after arming
		lat    uint64
		want   eventLog
	}{
		{"invalid in both worlds is born dead, and a refill onto it is no event",
			nil, ppnBit3, 0, 1, 20, nil},
		{"valid to invalid is live: the lost hit, the victim scan and the refill onto it",
			[]uint64{3}, validBit, 1, 3, 20, eventLog{ProbeRead, ProbeRead, ProbeOverwrite}},
		{"invalid to valid is live and a lookup of the page it now names reads it",
			nil, validBit, 1, 0, 0, eventLog{ProbeRead}},
		{"a vpn flip turns the golden hit into a walk: a read",
			[]uint64{3}, vpnBit0, 1, 3, 20, eventLog{ProbeRead}},
		{"a miss while a live site's valid bit differs reads it in the victim scan",
			[]uint64{0}, TLBEntryBits + validBit, 1, 5, 20, eventLog{ProbeRead}},
		{"a round-robin refill onto a live site kills it unread",
			[]uint64{0, 1}, ppnBit3, 1, 2, 20, eventLog{ProbeOverwrite}},
	} {
		pt := NewPageTable(1 << 20)
		tlb := NewTLB("DTLB", 2, 20)
		for _, p := range tc.filled {
			tlb.Translate(p*PageBytes, pt)
		}
		tlb.FlipBit(tc.flip)
		var got eventLog
		p := tlb.ArmProbe(tc.flip, 1, &got)
		if p.Sites() != 1 || p.LiveSites() != tc.live {
			t.Errorf("%s: %d sites, %d live, want 1 and %d", tc.name, p.Sites(), p.LiveSites(), tc.live)
		}
		if _, lat, f := tlb.Translate(tc.lookup*PageBytes, pt); lat != tc.lat || f != FaultNone {
			t.Errorf("%s: lookup took %d cycles (fault %v), want %d", tc.name, lat, f, tc.lat)
		}
		killed := 0
		for _, ev := range tc.want {
			if ev == ProbeOverwrite {
				killed++
			}
		}
		if !reflect.DeepEqual(got, tc.want) || p.LiveSites() != tc.live-killed {
			t.Errorf("%s: events %v leaving %d live, want %v leaving %d", tc.name, got, p.LiveSites(), tc.want, tc.live-killed)
		}
	}
}

// tagAddr is the address of tag tag in set 0 of newTestCacheOverRAM's cache:
// 16-byte lines over 4 sets leave the tag above bit 6.
func tagAddr(tag uint64) uint64 { return tag << 6 }

// tagEvent is one entry of a way's tag log: its cycle and detail.
type tagEvent struct {
	cycle  uint64
	detail uint32
}

// TestCacheTimelineTagLog pins what the recorder keeps of a 2-way set's
// tags, and what TagFate makes of it: a lookup one bit away from a way's tag
// logs that bit on that way only, a tag two or more bits away logs nothing,
// each eviction logs its kind, in run order; and a hit, which the data
// access after it logs, reads the tag bits of the hit way only, and reads
// them ahead of an eviction in its cycle only when it came first.
func TestCacheTimelineTagLog(t *testing.T) {
	c, _ := newTestCacheOverRAM(50)
	var clock uint64
	tl := c.RecordTimeline(&clock, 8)
	buf := make([]byte, 1)
	for _, a := range []struct {
		tag   uint64
		write bool
	}{
		{1, true},  // 1: fills way 0, dirty; no valid way to compare
		{6, false}, // 2: fills way 1; 6 is three bits from 1
		{6, false}, // 3: hits way 1
		{9, false}, // 4: one bit (3) from way 0's 1, four from 6; evicts way 0, dirty
		{5, false}, // 5: two bits from 9 and from 6; evicts way 1, clean
		{9, false}, // 6: hits way 0; 5 is two bits away
	} {
		clock++
		c.Access(tagAddr(a.tag), 1, a.write, buf)
	}
	tl.Seal()
	want := [][]tagEvent{
		{{4, tagNear + 3}, {4, uint32(ProbeWriteback)}},
		{{5, uint32(ProbeEvictClean)}},
	}
	for flat := range c.tags {
		var got []tagEvent
		tl.tags.Scan(flat, 0, clock, func(cycle uint64, d uint32) bool {
			got = append(got, tagEvent{cycle, d})
			return true
		})
		var w []tagEvent
		if flat < len(want) {
			w = want[flat]
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("way %d logged %v, want %v", flat, got, w)
		}
	}
	for _, tc := range []struct {
		flat, bit, t uint64
		want         SiteFate
	}{
		{1, 0, 2, SiteFate{Live: true, Cycle: 3, Event: ProbeRead}},       // the hit on way 1
		{0, 0, 2, SiteFate{Live: true, Cycle: 4, Event: ProbeWriteback}},  // not read by it
		{0, 3, 3, SiteFate{Live: true, Cycle: 4, Event: ProbeRead}},       // the lookup of 1 with bit 3 flipped
		{1, 0, 3, SiteFate{Live: true, Cycle: 5, Event: ProbeEvictClean}}, // erased unread
		{0, 0, 4, SiteFate{Live: true, Cycle: 6, Event: ProbeRead}},       // the refilled line's hit
	} {
		if got := tl.TagFate(tc.flat*tl.per+tc.bit, tc.t, clock); got != tc.want {
			t.Errorf("tag bit %d of way %d at cycle %d: %+v, want %+v", tc.bit, tc.flat, tc.t, got, tc.want)
		}
	}
	// A hit and an eviction of one line in one cycle, on a direct-mapped
	// cache: whichever came first decides.
	for _, tc := range []struct {
		second []uint64 // the tags looked up in cycle 2, tag 1 filled in cycle 1
		want   ProbeEvent
	}{{[]uint64{1, 2}, ProbeRead}, {[]uint64{2, 1}, ProbeEvictClean}} {
		c := NewCache(CacheConfig{Name: "C", Sets: 4, Ways: 1, LineBytes: 16, HitLat: 1, AddrBits: 20},
			&RAMLevel{RAM: NewRAM(1 << 20), ReadLat: 50})
		clock = 1
		tl := c.RecordTimeline(&clock, 8)
		c.Access(tagAddr(1), 1, false, buf)
		clock = 2
		for _, tag := range tc.second {
			c.Access(tagAddr(tag), 1, false, buf)
		}
		tl.Seal()
		if got, want := tl.TagFate(0, 1, clock), (SiteFate{Live: true, Cycle: 2, Event: tc.want}); got != want {
			t.Errorf("tags %v in one cycle: %+v, want %+v", tc.second, got, want)
		}
	}
}

// TestTagProbeEvents pins the tag probe's read rule on a 2-way set holding
// tags 1 (way 0, least recently used) and 6: a flipped tag bit is read by a
// lookup of its golden or its flipped tag and by no other, and a flipped
// valid or dirty bit by any lookup of the set.
func TestTagProbeEvents(t *testing.T) {
	const tagBit2, dirtyBit, validBit = 2, 14, 15
	for _, tc := range []struct {
		name   string
		flip   uint64 // bit of way 0's entry
		lookup uint64
		want   eventLog
	}{
		{"a hit on the other way", tagBit2, 6, nil},
		{"the golden tag misses: read, then the clean eviction", tagBit2, 1, eventLog{ProbeRead, ProbeEvictClean, ProbeOverwrite}},
		{"the flipped tag hits", tagBit2, 1 ^ 1<<tagBit2, eventLog{ProbeRead}},
		{"a tag one other bit away", tagBit2, 1 ^ 1<<1, eventLog{ProbeEvictClean, ProbeOverwrite}},
		{"a flipped dirty bit is read by any lookup", dirtyBit, 6, eventLog{ProbeRead}},
		{"a cleared valid bit is read by any lookup", validBit, 6, eventLog{ProbeRead}},
	} {
		c, _ := newTestCacheOverRAM(50)
		buf := make([]byte, 1)
		c.Access(tagAddr(1), 1, false, buf)
		c.Access(tagAddr(6), 1, false, buf)
		c.TagArray().FlipBit(tc.flip)
		var got eventLog
		if p := c.ArmTagProbe(tc.flip, 1, &got); p.LiveSites() != 1 {
			t.Fatalf("%s: %d live sites, want 1", tc.name, p.LiveSites())
		}
		c.Access(tagAddr(tc.lookup), 1, false, buf)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: events %v, want %v", tc.name, got, tc.want)
		}
	}
}
