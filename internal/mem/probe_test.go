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
