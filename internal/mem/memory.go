// Package mem models the memory subsystem of the AVGI machine: flat
// physical RAM, instruction and data TLBs, and a two-level write-back cache
// hierarchy (split L1I/L1D over a unified L2).
//
// Every array the paper injects faults into — L1I/L1D/L2 tag and data
// arrays, ITLB and DTLB entry arrays — is held as explicit bit-addressable
// state with FlipBit/BitCount accessors, so a single-bit upset mutates
// exactly the state a real SRAM upset would. Replacement metadata and the
// page table are "protected" (not fault targets), mirroring the paper's
// 12-structure fault model.
package mem

import (
	"fmt"
	"unsafe"
)

// PageBytes is the page size used by the TLBs, the page table, and the
// copy-on-write granularity of RAM forks.
const PageBytes = 4096

// vpn/ppn field widths in TLB entries. Twelve bits of page number cover a
// 16 MiB virtual space while physical RAM is 1 MiB, so corrupted page
// numbers can point at unmapped pages and raise page faults, as on real
// hardware.
const pageNumBits = 12

// Fault is a memory-system exception reported to the core, which raises it
// as a precise exception at commit.
type Fault uint8

const (
	FaultNone Fault = iota
	// FaultPage is an access to an unmapped page.
	FaultPage
	// FaultAlign is a misaligned access.
	FaultAlign
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultPage:
		return "page fault"
	case FaultAlign:
		return "alignment fault"
	}
	return fmt.Sprintf("fault(%d)", uint8(f))
}

// RAM is flat physical memory held as page-granular storage so checkpoint
// forks are copy-on-write: a fork shares the parent's pages and privatizes
// a page only on first write. DRAM cells are not one of the paper's 12
// fault targets, so RAM has no FlipBit accessor.
//
// Sharing discipline: a page referenced by more than one RAM is never
// written in place. Snapshot marks every page of the source un-owned, so
// both the live machine and the snapshot privatize before their next write;
// a snapshot itself is immutable and may be restored from concurrently.
type RAM struct {
	pages [][]byte
	// owned[i] reports that pages[i] is private to this RAM and may be
	// written in place; un-owned pages are (potentially) shared with a
	// snapshot or fork and are copied on first write.
	owned []bool
	size  uint64

	// cow counts pages privatized by copy-on-write since creation
	// (protected telemetry, not machine state).
	cow uint64
}

// NewRAM allocates size bytes of zeroed physical memory.
func NewRAM(size uint64) *RAM {
	n := numPages(size)
	r := &RAM{
		pages: make([][]byte, n),
		owned: make([]bool, n),
		size:  size,
	}
	// One flat allocation sliced into pages keeps the initial layout
	// contiguous and cheap.
	flat := make([]byte, size)
	for i := range r.pages {
		lo := uint64(i) * PageBytes
		hi := lo + PageBytes
		if hi > size {
			hi = size
		}
		r.pages[i] = flat[lo:hi:hi]
		r.owned[i] = true
	}
	return r
}

func numPages(size uint64) int {
	return int((size + PageBytes - 1) / PageBytes)
}

// Size returns the RAM size in bytes.
func (r *RAM) Size() uint64 { return r.size }

// Bytes materializes the full contents as one contiguous slice. After a
// copy-on-write fork the backing store is fragmented across shared pages,
// so the result is a fresh copy; it is meant for inspection (tests,
// debugging), not the access path.
func (r *RAM) Bytes() []byte {
	flat := make([]byte, r.size)
	r.ReadBlock(0, flat)
	return flat
}

// privatize makes page i writable in place, copying it first if it is
// shared with a fork or snapshot.
func (r *RAM) privatize(i int) {
	if r.owned[i] {
		return
	}
	p := make([]byte, len(r.pages[i]), cap(r.pages[i]))
	copy(p, r.pages[i])
	r.pages[i] = p
	r.owned[i] = true
	r.cow++
}

// WriteBlock copies data into RAM at addr, privatizing every touched page.
func (r *RAM) WriteBlock(addr uint64, data []byte) {
	for len(data) > 0 {
		i := int(addr / PageBytes)
		off := addr % PageBytes
		r.privatize(i)
		n := copy(r.pages[i][off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// ReadBlock copies len(dst) bytes from RAM at addr.
func (r *RAM) ReadBlock(addr uint64, dst []byte) {
	for len(dst) > 0 {
		i := int(addr / PageBytes)
		off := addr % PageBytes
		n := copy(dst, r.pages[i][off:])
		dst = dst[n:]
		addr += uint64(n)
	}
}

// Snapshot captures the current contents as an immutable copy-on-write
// fork: the snapshot shares this RAM's pages, and this RAM privatizes a
// page before its next write to it. The snapshot must never be written;
// it may be restored from concurrently. into, when non-nil, is reused to
// avoid allocation.
func (r *RAM) Snapshot(into *RAM) *RAM {
	s := into
	if s == nil {
		s = &RAM{
			pages: make([][]byte, len(r.pages)),
			owned: make([]bool, len(r.pages)),
		}
	} else if len(s.pages) != len(r.pages) {
		panic(fmt.Sprintf("mem: RAM snapshot reuse across sizes (%d pages into %d)",
			len(r.pages), len(s.pages)))
	}
	s.size = r.size
	copy(s.pages, r.pages)
	for i := range r.owned {
		r.owned[i] = false // the source now shares every page
		s.owned[i] = false
	}
	s.cow = 0
	return s
}

// RestoreFrom rewinds this RAM to a snapshot's contents by adopting its
// pages copy-on-write. Only the receiver is mutated, so any number of
// machines may restore from the same snapshot concurrently.
func (r *RAM) RestoreFrom(snap *RAM) {
	if r.size != snap.size {
		panic(fmt.Sprintf("mem: RAM restore across sizes (%d into %d)", snap.size, r.size))
	}
	copy(r.pages, snap.pages)
	for i := range r.owned {
		r.owned[i] = false
	}
}

// forkOf reports whether this RAM holds exactly snap's pages, none of them
// privatized since: a capture now would equal snap.
func (r *RAM) forkOf(snap *RAM) bool {
	if r.size != snap.size {
		return false
	}
	for i, p := range r.pages {
		if r.owned[i] || &p[0] != &snap.pages[i][0] {
			return false
		}
	}
	return true
}

// forkBytes is what a RAM fork owns: the RAM itself and a slice header and
// an owned flag per page, not the shared page contents.
func (r *RAM) forkBytes() uint64 {
	return uint64(unsafe.Sizeof(*r)) + uint64(len(r.pages))*uint64(unsafe.Sizeof(r.pages[0])+unsafe.Sizeof(r.owned[0]))
}

// CowPrivatized returns the number of pages this RAM has privatized by
// copy-on-write since creation — the per-fork write footprint the
// checkpoint telemetry reports.
func (r *RAM) CowPrivatized() uint64 { return r.cow }

// PageTable is the identity mapping from virtual to physical pages for all
// pages backed by RAM. It is architectural metadata maintained by
// (hypothetical) system software and is not a fault target.
type PageTable struct {
	numPages uint64
}

// NewPageTable builds the identity page table covering ramSize bytes.
func NewPageTable(ramSize uint64) *PageTable {
	return &PageTable{numPages: ramSize / PageBytes}
}

// Walk translates a virtual page number. The walk itself costs WalkLatency
// cycles, charged by the TLB on a miss.
func (pt *PageTable) Walk(vpn uint64) (ppn uint64, ok bool) {
	if vpn >= pt.numPages {
		return 0, false
	}
	return vpn, true
}

// NumPages returns the number of mapped pages, which is also the number of
// physically backed pages: a translation at or beyond this bound — reachable
// only through a corrupted TLB entry — faults like an access to an unbacked
// physical page would.
func (pt *PageTable) NumPages() uint64 { return pt.numPages }
