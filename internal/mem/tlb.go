package mem

// TLB is a fully associative translation lookaside buffer. Each entry packs
// valid(1) | vpn(12) | ppn(12) into the low 25 bits of a uint64; those 25
// bits per entry are the fault-injection surface of the structure, matching
// the paper's ITLB/DTLB targets.
//
// Replacement state (round-robin pointer) is protected metadata.
type TLB struct {
	name        string
	walkLatency uint64

	tlbState

	// touched tracks the entries written since the last sync point.
	// Translate hits are read-only, so only fills and bit flips touch.
	touched DirtySet

	// probe, when non-nil, observes consumption and erasure of the
	// entries covered by an injected fault (see probe.go).
	probe *TLBProbe
}

// tlbState is everything about a TLB that changes as it runs, and so
// everything a snapshot holds: a scalar added to tlbScalars travels by
// struct assignment, an array needs a line in copyFrom and in chain
// (TestMemCopySharesNoBuffers fails without it).
type tlbState struct {
	entries []uint64
	tlbScalars
}

// tlbScalars is the pointer-free part of tlbState (see cacheScalars).
type tlbScalars struct {
	rr int // round-robin replacement cursor (protected)

	// Accesses and Misses are running statistics (protected).
	Accesses uint64
	Misses   uint64
}

// copyFrom makes dst equal src, each array copied into dst's own buffer —
// only the entries only lists, if non-nil. Returns the array bytes moved.
func (dst *tlbState) copyFrom(src *tlbState, only *DirtySet) uint64 {
	dst.tlbScalars = src.tlbScalars
	return CopyRows(&dst.entries, src.entries, only, 1)
}

// TLBEntryBits is the fault-injection surface of one entry: valid, vpn, ppn.
const TLBEntryBits = 1 + 2*pageNumBits

const (
	tlbValidBit = 1 << 24
	tlbVPNShift = 12
	tlbPPNShift = 0
	pageNumMask = (1 << pageNumBits) - 1
)

// tlbServes reports whether entry value e translates vpn.
func tlbServes(e, vpn uint64) bool {
	return e&tlbValidBit != 0 && (e>>tlbVPNShift)&pageNumMask == vpn
}

// NewTLB builds a TLB with n entries. walkLatency is the page-walk cost in
// cycles charged on every miss.
func NewTLB(name string, n int, walkLatency uint64) *TLB {
	t := &TLB{name: name, walkLatency: walkLatency}
	t.entries = make([]uint64, n)
	return t
}

// BitCount returns the total number of fault-injectable bits.
func (t *TLB) BitCount() uint64 { return uint64(len(t.entries)) * TLBEntryBits }

// FlipBit flips bit i of the entry array.
func (t *TLB) FlipBit(i uint64) {
	entry := i / TLBEntryBits
	bit := i % TLBEntryBits
	t.touched.Touch(int(entry))
	t.entries[entry] ^= 1 << bit
}

// Translate maps a virtual address to a physical address, consulting the
// page table pt on a miss. It returns the physical address, the latency in
// cycles added by translation (0 on a hit), and a fault indication for
// unmapped pages.
func (t *TLB) Translate(vaddr uint64, pt *PageTable) (paddr uint64, lat uint64, fault Fault) {
	t.Accesses++
	vpn := (vaddr / PageBytes) & pageNumMask
	off := vaddr % PageBytes
	for i, e := range t.entries {
		if tlbServes(e, vpn) {
			if t.probe != nil {
				t.probe.onLookup(vpn, i)
			}
			ppn := (e >> tlbPPNShift) & pageNumMask
			if ppn >= pt.NumPages() {
				// A corrupted PPN can point outside RAM; the
				// access raises a page fault exactly as a
				// hardware translation to an unbacked page
				// would.
				return 0, 0, FaultPage
			}
			return ppn*PageBytes + off, 0, FaultNone
		}
	}
	if t.probe != nil {
		t.probe.onLookup(vpn, -1)
	}
	t.Misses++
	ppn, ok := pt.Walk(vpn)
	if !ok {
		return 0, t.walkLatency, FaultPage
	}
	t.fill(vpn, ppn)
	return ppn*PageBytes + off, t.walkLatency, FaultNone
}

func (t *TLB) fill(vpn, ppn uint64) {
	// Prefer an invalid slot; otherwise round-robin replace.
	victim := -1
	for i, e := range t.entries {
		if e&tlbValidBit == 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = t.rr
		t.rr = (t.rr + 1) % len(t.entries)
	}
	t.touched.Touch(victim)
	if t.probe != nil {
		t.probe.onFill(victim)
	}
	t.entries[victim] = tlbValidBit | (vpn&pageNumMask)<<tlbVPNShift | (ppn&pageNumMask)<<tlbPPNShift
}

// BeginDeltaTracking starts recording the entries written by fills and
// flips, with the current state as the sync point (see DirtySet).
func (t *TLB) BeginDeltaTracking() { t.touched.Begin(len(t.entries)) }

// EndDeltaTracking stops recording and clears the touch list.
func (t *TLB) EndDeltaTracking() { t.touched.End() }

// sync moves state between the TLB and snap under the same contract as
// Cache.sync: capture or rewind, whole or only the touched entries.
func (t *TLB) sync(snap *tlbState, capture, delta bool) uint64 {
	only := checkSync(t.name, &t.touched, len(snap.entries) == len(t.entries), capture, delta)
	dst, src := &t.tlbState, snap
	if capture {
		dst, src = src, dst
	}
	n := dst.copyFrom(src, only)
	t.touched.Reset()
	return n
}

// chain captures the TLB into the empty snap as the successor of prev, the
// capture at the last sync point (see Cache.chain): an entry array that
// holds what prev's does is prev's, shared. Returns the bytes snap owns.
func (t *TLB) chain(snap, prev *tlbState) uint64 {
	checkSync(t.name, &t.touched, len(prev.entries) == len(t.entries), true, true)
	snap.tlbScalars = t.tlbScalars
	return ShareRows(&snap.entries, t.entries, prev.entries, &t.touched)
}
