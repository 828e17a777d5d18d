package mem

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// equalCache compares every bit of state a cache's sync is responsible for.
func equalCache(t *testing.T, label string, got, want *cacheState) {
	t.Helper()
	if !bytes.Equal(got.data, want.data) {
		t.Fatalf("%s: data arrays differ", label)
	}
	for i := range got.tags {
		if got.tags[i] != want.tags[i] {
			t.Fatalf("%s: tag entry %d differs: %#x vs %#x", label, i, got.tags[i], want.tags[i])
		}
		if got.lru[i] != want.lru[i] {
			t.Fatalf("%s: lru entry %d differs", label, i)
		}
	}
	if got.tick != want.tick || got.Accesses != want.Accesses ||
		got.Misses != want.Misses || got.Writebacks != want.Writebacks {
		t.Fatalf("%s: scalars differ: tick %d/%d acc %d/%d miss %d/%d wb %d/%d",
			label, got.tick, want.tick, got.Accesses, want.Accesses,
			got.Misses, want.Misses, got.Writebacks, want.Writebacks)
	}
}

// mutateCache drives a random mix of reads, writes, bit flips and flushes
// — every operation class that can dirty cache state between sync points.
func mutateCache(c *Cache, rng *rand.Rand, ops int) {
	buf := make([]byte, 8)
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0:
			c.TagArray().FlipBit(uint64(rng.Intn(int(c.TagArray().BitCount()))))
		case 1:
			c.DataArray().FlipBit(uint64(rng.Intn(int(c.DataArray().BitCount()))))
		case 2:
			c.Flush()
		default:
			addr := uint64(rng.Intn(1 << 12))
			addr &^= 7
			if rng.Intn(2) == 0 {
				rng.Read(buf)
				c.Access(addr, 8, true, buf)
			} else {
				c.Access(addr, 8, false, buf)
			}
		}
	}
}

// TestCacheDeltaRestoreEquivalence is the dirty-delta property test: a
// cache mutated arbitrarily after a sync point and then rewound by delta
// must be bit-for-bit identical to its state at the sync point, and to a
// second cache given the snapshot by a full rewind — across many random
// rounds, re-arming the snapshot by a delta capture between rounds exactly
// as a cursor worker does per fault.
func TestCacheDeltaRestoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, _ := newTestCacheOverRAM(10)
	full, _ := newTestCacheOverRAM(10)
	mutateCache(c, rng, 500) // warm state: valid lines, dirty lines, stats

	c.BeginDeltaTracking()
	var snap, ref cacheSnap
	c.sync(&snap, true, false) // sync point
	for round := 0; round < 50; round++ {
		// Re-arm: advance the cache (the "golden advance"), capture the
		// delta into the same snapshot buffers.
		mutateCache(c, rng, rng.Intn(200))
		c.sync(&snap, true, true)

		// ref is the ground truth at the new sync point: a full capture,
		// which leaves the (already empty) touch list empty.
		c.sync(&ref, true, false)

		// The "faulty run": arbitrary divergence, then the delta rewind.
		mutateCache(c, rng, rng.Intn(300))
		c.sync(&snap, false, true)
		equalCache(t, "after the delta rewind", &c.cacheState, flatten(t, c, &ref))

		// The rewound cache must also match the state a full rewind from
		// the snapshot produces.
		full.sync(&snap, false, false)
		equalCache(t, "delta vs full rewind", &c.cacheState, &full.cacheState)
	}
}

// TestCacheDeltaUntouchedIsFree pins the cost model: with nothing touched
// between sync points, the delta pair moves zero array bytes.
func TestCacheDeltaUntouchedIsFree(t *testing.T) {
	c, _ := newTestCacheOverRAM(10)
	c.BeginDeltaTracking()
	var snap cacheSnap
	c.sync(&snap, true, false)
	if n := c.sync(&snap, true, true); n != 0 {
		t.Errorf("untouched delta capture copied %d bytes", n)
	}
	if n := c.sync(&snap, false, true); n != 0 {
		t.Errorf("untouched delta rewind copied %d bytes", n)
	}
}

// TestCacheDeltaSyncWithoutTrackingPanics pins the misuse guard.
func TestCacheDeltaSyncWithoutTrackingPanics(t *testing.T) {
	c, _ := newTestCacheOverRAM(10)
	var snap cacheSnap
	c.sync(&snap, true, false)
	defer func() {
		if recover() == nil {
			t.Error("a delta rewind without BeginDeltaTracking must panic")
		}
	}()
	c.sync(&snap, false, true)
}

// TestTLBDeltaRestoreEquivalence is the TLB (entry-granular) counterpart
// of the cache delta property test.
func TestTLBDeltaRestoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pt := NewPageTable(1 << 20)
	tlb, full := NewTLB("DTLB", 8, 20), NewTLB("DTLB", 8, 20)
	mutate := func(ops int) {
		for i := 0; i < ops; i++ {
			if rng.Intn(4) == 0 {
				tlb.FlipBit(uint64(rng.Intn(int(tlb.BitCount()))))
			} else {
				tlb.Translate(uint64(rng.Intn(1<<18)), pt)
			}
		}
	}
	mutate(100)

	tlb.BeginDeltaTracking()
	var snap, ref tlbState
	tlb.sync(&snap, true, false)
	for round := 0; round < 50; round++ {
		mutate(rng.Intn(40))
		tlb.sync(&snap, true, true)
		tlb.sync(&ref, true, false)

		mutate(rng.Intn(60))
		tlb.sync(&snap, false, true)
		full.sync(&snap, false, false)

		for _, want := range []*tlbState{&ref, &full.tlbState} {
			if !bytes.Equal(uint64sAsBytes(tlb.entries), uint64sAsBytes(want.entries)) {
				t.Fatal("entry arrays differ after the delta rewind")
			}
			if tlb.tlbScalars != want.tlbScalars {
				t.Fatalf("scalars differ: %+v, want %+v", tlb.tlbScalars, want.tlbScalars)
			}
		}
	}
}

func uint64sAsBytes(v []uint64) []byte {
	out := make([]byte, 0, len(v)*8)
	for _, x := range v {
		for s := 0; s < 64; s += 8 {
			out = append(out, byte(x>>s))
		}
	}
	return out
}

// TestHierarchyDeltaRestoreEquivalence exercises the fan-out: TLBs, all
// three caches and the copy-on-write RAM rewound together through the
// hierarchy-level sync pair must reproduce loads bit-for-bit, and every
// part must equal a second hierarchy given the snapshot by a full Restore.
func TestHierarchyDeltaRestoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h, full := NewHierarchy(testConfig()), NewHierarchy(testConfig())
	drive := func(ops int) {
		for i := 0; i < ops; i++ {
			addr := uint64(rng.Intn(1<<14)) &^ 7
			if rng.Intn(2) == 0 {
				h.Store(addr, 8, rng.Uint64())
			} else {
				h.Load(addr, 8)
			}
		}
	}
	drive(300)

	h.BeginDeltaTracking()
	snap := h.Snapshot(nil) // full capture establishes the sync point
	for round := 0; round < 20; round++ {
		drive(rng.Intn(100))
		h.SyncSnapshot(snap)

		// Record ground truth as observed values at a sample of addresses;
		// the loads are tracked, so the rewind below undoes them too.
		ref := make(map[uint64]uint64)
		for i := 0; i < 64; i++ {
			addr := uint64(rng.Intn(1<<14)) &^ 7
			v, _, _ := h.Load(addr, 8)
			ref[addr] = v
		}

		drive(rng.Intn(150))
		h.SyncRestore(snap)
		full.Restore(snap)
		tlbs, caches := h.parts()
		ftlbs, fcaches := full.parts()
		for i := range tlbs {
			if !reflect.DeepEqual(tlbs[i].tlbState, ftlbs[i].tlbState) {
				t.Fatalf("round %d: %s differs from a full Restore", round, tlbs[i].name)
			}
		}
		for i := range caches {
			equalCache(t, "delta vs full Restore", &caches[i].cacheState, &fcaches[i].cacheState)
		}
		for addr, want := range ref {
			if v, _, _ := h.Load(addr, 8); v != want {
				t.Fatalf("round %d: addr %#x reads %#x after delta restore, want %#x", round, addr, v, want)
			}
		}
	}
}
