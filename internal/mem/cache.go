package mem

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"
)

// Level is a lower memory level a cache fills from and writes back to.
type Level interface {
	// ReadLine fetches a full line at the line-aligned address into dst
	// and returns the access latency in cycles.
	ReadLine(paddr uint64, dst []byte) uint64
	// WriteLine writes a full line at the line-aligned address and
	// returns the latency in cycles (zero if absorbed by a write buffer).
	WriteLine(paddr uint64, src []byte) uint64
}

// RAMLevel adapts RAM as the terminal Level.
type RAMLevel struct {
	RAM     *RAM
	ReadLat uint64
}

// ReadLine implements Level.
func (r *RAMLevel) ReadLine(paddr uint64, dst []byte) uint64 {
	r.RAM.ReadBlock(paddr, dst)
	return r.ReadLat
}

// WriteLine implements Level. Writebacks are absorbed by the memory
// controller's write buffer, so they add no latency to the access path.
func (r *RAMLevel) WriteLine(paddr uint64, src []byte) uint64 {
	r.RAM.WriteBlock(paddr, src)
	return 0
}

// CacheConfig describes the geometry and hit latency of one cache level.
type CacheConfig struct {
	Name      string
	Sets      int
	Ways      int
	LineBytes int
	HitLat    uint64
	// AddrBits is the number of physical address bits the tag must
	// distinguish (log2 of RAM size).
	AddrBits int
}

// tagBits is the width of a tag: the address bits above the set index and
// the line offset.
func (cfg CacheConfig) tagBits() int {
	return cfg.AddrBits - bits.TrailingZeros(uint(cfg.Sets)) - bits.TrailingZeros(uint(cfg.LineBytes))
}

// TagEntryBits is the width of one tag-array entry: the tag, then the dirty
// and valid bits above it.
func (cfg CacheConfig) TagEntryBits() uint64 { return uint64(cfg.tagBits() + 2) }

// Cache is a set-associative, write-back, write-allocate cache with
// separate bit-addressable tag and data arrays.
type Cache struct {
	cfg      CacheConfig
	setBits  int
	lineBits int

	// Precomputed tag-entry masks. The geometry is fixed at construction,
	// so the valid/dirty bit positions and the tag mask are loaded as
	// fields instead of recomputed by shifts on every access.
	valid uint64
	dirty uint64
	tmask uint64

	cacheState

	lower Level

	// touched tracks the sets written — or whose replacement state was
	// updated — since the last sync point.
	touched DirtySet

	// probe, when non-nil, observes consumption and erasure of the array
	// entries covered by an injected fault (see probe.go). Cleared before
	// the faulty machine is rewound; a copy never carries it.
	probe *LineProbe
}

// cacheState is everything about a cache that changes as it runs: its
// arrays, all rows of them, and its scalars. A scalar added to
// cacheScalars travels with every copy by struct assignment; an array needs
// a field in cacheSet and a line in copyRows, copySet, window and chain
// (TestMemCopySharesNoBuffers fails without them).
type cacheState struct {
	cacheSet
	cacheScalars
}

// cacheScalars is the pointer-free part of cacheState, apart so that the
// per-fault copy of it takes no GC write barrier.
type cacheScalars struct {
	tick uint64 // the lru clock

	// Statistics (protected).
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// cacheSnap is a snapshot's copy of a cache: base, the arrays of the full
// capture its chain starts from, in the live layout, and over it sets, the
// rows of every set captured since (Hierarchy.SnapshotAfter), nil where
// base's rows still hold. A full capture has no sets. A chained capture
// shares base, and every set the cache has not changed since its
// predecessor, with the predecessor. Only a full or delta capture into the
// snapshot that allocated base writes it in place, and never once a chain
// shares it (HierarchySnap.frozen). A full copy moves base whole, so that
// it costs what a copy of the live arrays does, then the sets over it.
type cacheSnap struct {
	base cacheSet
	sets []*cacheSet
	cacheScalars
}

// cacheSet is rows of the cache's arrays, one set's or all of them.
type cacheSet struct {
	// tags packs valid(1) | dirty(1) | tag per way, set-major.
	tags []uint64
	// data holds the line contents, set-major then way-major.
	data []byte
	// lru holds last-touch timestamps (protected replacement metadata).
	lru []uint64
}

// copyRows makes dst's arrays, all rows of them, equal src's — only the
// sets only lists, if non-nil — each in dst's own buffer. Returns the bytes
// moved.
func (dst *cacheSet) copyRows(src *cacheSet, only *DirtySet, ways, lineBytes int) uint64 {
	return CopyRows(&dst.tags, src.tags, only, ways) +
		CopyRows(&dst.lru, src.lru, only, ways) +
		CopyRows(&dst.data, src.data, only, ways*lineBytes)
}

// copySet copies src's rows into dst's.
func copySet(dst, src cacheSet) {
	copy(dst.tags, src.tags)
	copy(dst.data, src.data)
	copy(dst.lru, src.lru)
}

// row returns the snapshot's rows of set.
func (s *cacheSnap) row(c *Cache, set int) cacheSet {
	if s.sets != nil && s.sets[set] != nil {
		return *s.sets[set]
	}
	return c.window(s.base, set)
}

// fits reports whether snap has c's geometry.
func (c *Cache) fits(snap *cacheSnap) bool {
	return len(snap.base.tags) == len(c.tags) && len(snap.base.data) == len(c.data)
}

// window returns set's rows of arrays in the live layout.
func (c *Cache) window(arrays cacheSet, set int) cacheSet {
	lo, hi := set*c.cfg.Ways, (set+1)*c.cfg.Ways
	return cacheSet{tags: arrays.tags[lo:hi], data: arrays.data[lo*c.cfg.LineBytes : hi*c.cfg.LineBytes], lru: arrays.lru[lo:hi]}
}

// NewCache builds a cache with the given geometry over the lower level.
func NewCache(cfg CacheConfig, lower Level) *Cache {
	if cfg.Sets&(cfg.Sets-1) != 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("mem: %s: sets and line size must be powers of two", cfg.Name))
	}
	c := &Cache{
		cfg:      cfg,
		setBits:  bits.TrailingZeros(uint(cfg.Sets)),
		lineBits: bits.TrailingZeros(uint(cfg.LineBytes)),
		lower:    lower,
	}
	c.tags = make([]uint64, cfg.Sets*cfg.Ways)
	c.data = make([]byte, cfg.Sets*cfg.Ways*cfg.LineBytes)
	c.lru = make([]uint64, cfg.Sets*cfg.Ways)
	tagBits := cfg.tagBits()
	if tagBits <= 0 {
		panic(fmt.Sprintf("mem: %s: geometry larger than address space", cfg.Name))
	}
	c.valid = 1 << (tagBits + 1)
	c.dirty = 1 << tagBits
	c.tmask = 1<<tagBits - 1
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) split(paddr uint64) (set int, tag uint64, off uint64) {
	line := paddr >> c.lineBits
	set = int(line) & (c.cfg.Sets - 1)
	tag = (line >> c.setBits) & c.tmask
	off = paddr & uint64(c.cfg.LineBytes-1)
	return
}

// lineAddr reconstructs the line-aligned physical address of a way's
// contents from its (possibly corrupted) tag.
func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return (tag<<c.setBits | uint64(set)) << c.lineBits
}

// Access performs a read (write=false, buf filled) or write (write=true,
// buf consumed) of n bytes at paddr. The access must not cross a line
// boundary — the core enforces natural alignment before translation. The
// returned latency includes any fill from the lower level.
func (c *Cache) Access(paddr uint64, n uint64, write bool, buf []byte) uint64 {
	c.Accesses++
	c.tick++
	set, tag, off := c.split(paddr)
	c.touched.Touch(set)
	base := set * c.cfg.Ways
	way := -1
	for w := 0; w < c.cfg.Ways; w++ {
		e := c.tags[base+w]
		if e&c.valid != 0 && e&c.tmask == tag {
			way = w
			break
		}
	}
	if c.probe != nil {
		c.probe.onLookup(c, set, tag)
	}
	lat := c.cfg.HitLat
	if way < 0 {
		c.Misses++
		way = c.victim(set)
		lat += c.fill(set, way, tag)
	}
	c.lru[base+way] = c.tick
	idx := (base+way)*c.cfg.LineBytes + int(off)
	if write {
		copy(c.data[idx:idx+int(n)], buf[:n])
		c.tags[base+way] |= c.dirty
	} else {
		copy(buf[:n], c.data[idx:idx+int(n)])
	}
	if c.probe != nil {
		c.probe.onData(base+way, int(off), int(n), write)
	}
	return lat
}

// victim picks the way to replace in set: an invalid way if any, else LRU.
func (c *Cache) victim(set int) int {
	base := set * c.cfg.Ways
	oldest, way := ^uint64(0), 0
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w]&c.valid == 0 {
			return w
		}
		if c.lru[base+w] < oldest {
			oldest = c.lru[base+w]
			way = w
		}
	}
	return way
}

// fill evicts the victim way (writing back a dirty line to the address its
// current — possibly corrupted — tag names) and fetches the new line.
func (c *Cache) fill(set, way int, tag uint64) uint64 {
	base := set * c.cfg.Ways
	e := c.tags[base+way]
	idx := (base + way) * c.cfg.LineBytes
	if c.probe != nil {
		c.probe.onEvict(base+way, e&c.valid != 0, e&c.dirty != 0)
	}
	var lat uint64
	if e&c.valid != 0 && e&c.dirty != 0 {
		c.Writebacks++
		lat += c.lower.WriteLine(c.lineAddr(set, e&c.tmask), c.data[idx:idx+c.cfg.LineBytes])
	}
	lat += c.lower.ReadLine(c.lineAddr(set, tag), c.data[idx:idx+c.cfg.LineBytes])
	c.tags[base+way] = c.valid | tag
	return lat
}

// ReadLine implements Level so an L1 can sit on top of this cache.
func (c *Cache) ReadLine(paddr uint64, dst []byte) uint64 {
	return c.Access(paddr, uint64(len(dst)), false, dst)
}

// WriteLine implements Level.
func (c *Cache) WriteLine(paddr uint64, src []byte) uint64 {
	return c.Access(paddr, uint64(len(src)), true, src)
}

// DirtyLinesInRange counts valid dirty lines whose (tag-derived) physical
// address lies in [lo, hi). It is a pure observation used by the golden
// run's output-exposure profile (the ESC predictor input) and does not
// touch replacement state or statistics.
func (c *Cache) DirtyLinesInRange(lo, hi uint64) int {
	n := 0
	for set := 0; set < c.cfg.Sets; set++ {
		base := set * c.cfg.Ways
		for w := 0; w < c.cfg.Ways; w++ {
			e := c.tags[base+w]
			if e&c.valid == 0 || e&c.dirty == 0 {
				continue
			}
			addr := c.lineAddr(set, e&c.tmask)
			if addr >= lo && addr < hi {
				n++
			}
		}
	}
	return n
}

// Lines returns the total number of lines in the cache.
func (c *Cache) Lines() int { return c.cfg.Sets * c.cfg.Ways }

// Flush writes every dirty line back to the lower level and clears dirty
// bits. Used at halt so the DMA engine observes the program's output in
// physical memory, including any corruption that escaped through dirty
// lines (the ESC path).
func (c *Cache) Flush() {
	for set := 0; set < c.cfg.Sets; set++ {
		base := set * c.cfg.Ways
		for w := 0; w < c.cfg.Ways; w++ {
			e := c.tags[base+w]
			if e&c.valid != 0 && e&c.dirty != 0 {
				idx := (base + w) * c.cfg.LineBytes
				c.Writebacks++
				c.touched.Touch(set)
				if c.probe != nil {
					c.probe.onFlush(base + w)
				}
				c.lower.WriteLine(c.lineAddr(set, e&c.tmask), c.data[idx:idx+c.cfg.LineBytes])
				c.tags[base+w] &^= c.dirty
			}
		}
	}
}

// BeginDeltaTracking starts recording the sets touched by accesses, flushes
// and flips, with the current state as the sync point (see DirtySet).
func (c *Cache) BeginDeltaTracking() { c.touched.Begin(c.cfg.Sets) }

// EndDeltaTracking stops recording and clears the touch list.
func (c *Cache) EndDeltaTracking() { c.touched.End() }

// sync moves state between the cache and snap: out of the cache with
// capture set, into it otherwise; whole, or with delta only the sets touched
// since the last sync point. The two are equal afterwards, so the touch list
// restarts empty. A capture writes snap's base (see CopyRows); a rewind
// copies base, then the sets a chained snapshot holds over it. Returns the
// bytes of base moved.
func (c *Cache) sync(snap *cacheSnap, capture, delta bool) uint64 {
	only := checkSync(c.cfg.Name, &c.touched, c.fits(snap), capture, delta)
	dst, src := &c.cacheSet, &snap.base
	if capture {
		dst, src = src, dst
		snap.cacheScalars = c.cacheScalars
	} else {
		c.cacheScalars = snap.cacheScalars
	}
	n := dst.copyRows(src, only, c.cfg.Ways, c.cfg.LineBytes)
	if !capture {
		for set, s := range snap.sets {
			if s != nil && (only == nil || only.marked[set]) {
				copySet(c.window(c.cacheSet, set), *s)
			}
		}
	}
	c.touched.Reset()
	return n
}

// chain captures the cache into the empty snap as the successor of prev,
// the capture at the last sync point. A set not touched since is prev's,
// and with none changed snap shares prev's whole table. A changed set gets
// a cacheSet of its own, whose tags, lines and lru stamps are each prev's
// rows when they hold the same (a read hit moves only the stamps) and a
// copy otherwise. Returns the bytes snap owns.
func (c *Cache) chain(snap, prev *cacheSnap) uint64 {
	checkSync(c.cfg.Name, &c.touched, c.fits(prev), true, true)
	snap.cacheScalars = c.cacheScalars
	snap.base, snap.sets = prev.base, prev.sets
	var n uint64
	for _, set := range c.touched.rows {
		live, p := c.window(c.cacheSet, int(set)), prev.row(c, int(set))
		before := n
		rows := cacheSet{tags: keep(live.tags, p.tags, &n), data: keep(live.data, p.data, &n), lru: keep(live.lru, p.lru, &n)}
		if n == before {
			continue // unchanged
		}
		if before == 0 { // the first changed set: the table becomes snap's own
			snap.sets = make([]*cacheSet, c.cfg.Sets)
			copy(snap.sets, prev.sets)
			n += uint64(len(snap.sets)) * uint64(unsafe.Sizeof(&rows))
		}
		snap.sets[set] = &cacheSet{tags: rows.tags, data: rows.data, lru: rows.lru}
		n += uint64(unsafe.Sizeof(rows))
	}
	c.touched.Reset()
	return n
}

// keep returns prev when live holds the same rows, else a copy of live,
// counting the copy's bytes into *n.
func keep[T comparable](live, prev []T, n *uint64) []T {
	if slices.Equal(live, prev) {
		return prev
	}
	*n += uint64(len(live)) * uint64(unsafe.Sizeof(live[0]))
	return slices.Clone(live)
}

// TagArray exposes the tag array as a fault-injection target.
func (c *Cache) TagArray() *CacheTagArray { return &CacheTagArray{c} }

// DataArray exposes the data array as a fault-injection target.
func (c *Cache) DataArray() *CacheDataArray { return &CacheDataArray{c} }

// CacheTagArray is the bit-addressable view of a cache's tag array,
// including valid and dirty bits (TagEntryBits per line).
type CacheTagArray struct{ c *Cache }

// BitCount returns the number of injectable bits.
func (a *CacheTagArray) BitCount() uint64 {
	return uint64(len(a.c.tags)) * a.c.cfg.TagEntryBits()
}

// FlipBit flips bit i of the tag array.
func (a *CacheTagArray) FlipBit(i uint64) {
	per := a.c.cfg.TagEntryBits()
	entry := i / per
	a.c.touched.Touch(int(entry) / a.c.cfg.Ways)
	a.c.tags[entry] ^= 1 << (i % per)
}

// CacheDataArray is the bit-addressable view of a cache's data array.
type CacheDataArray struct{ c *Cache }

// BitCount returns the number of injectable bits.
func (a *CacheDataArray) BitCount() uint64 { return uint64(len(a.c.data)) * 8 }

// FlipBit flips bit i of the data array.
func (a *CacheDataArray) FlipBit(i uint64) {
	b := i / 8
	line := int(b) / a.c.cfg.LineBytes
	a.c.touched.Touch(line / a.c.cfg.Ways)
	a.c.data[b] ^= 1 << (i % 8)
}
