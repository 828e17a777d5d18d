package mem

import "testing"

// BenchmarkCacheAccess measures the cache's per-access cost on a mixed
// read/write stream over a footprint larger than the cache, so both the
// hit path and the fill/writeback paths are exercised. It justifies the
// precomputed valid/dirty/tmask fields: before hoisting, every access
// recomputed those masks by shifts in split, the hit scan, victim
// selection and fill (standing measurement: mem.cache_access_ns,
// bench/README.md).
func BenchmarkCacheAccess(b *testing.B) {
	ram := NewRAM(1 << 20)
	lower := &RAMLevel{RAM: ram, ReadLat: 60}
	c := NewCache(CacheConfig{Name: "L1D", Sets: 32, Ways: 2, LineBytes: 64, HitLat: 2, AddrBits: 20}, lower)
	var buf [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i*64+i*8) & (1<<18 - 1) &^ 7
		c.Access(addr, 8, i&3 == 0, buf[:])
	}
}

// BenchmarkCacheDeltaSyncPair measures one delta capture and delta rewind
// (a cache's share of a SyncSnapshot+SyncRestore re-arm/rewind pair) after a realistic smattering of touched sets — the
// per-fault copy cost of the cursor fork path.
func BenchmarkCacheDeltaSyncPair(b *testing.B) {
	ram := NewRAM(1 << 20)
	lower := &RAMLevel{RAM: ram, ReadLat: 60}
	c := NewCache(CacheConfig{Name: "L1D", Sets: 32, Ways: 2, LineBytes: 64, HitLat: 2, AddrBits: 20}, lower)
	var buf [8]byte
	c.BeginDeltaTracking()
	var snap cacheSnap
	c.sync(&snap, true, false)
	b.ResetTimer()
	touch := func(base int) {
		for j := 0; j < 8; j++ { // ~8 of 32 sets per phase
			addr := uint64((base+j)*64) & (1<<18 - 1)
			c.Access(addr, 8, true, buf[:])
		}
	}
	for i := 0; i < b.N; i++ {
		touch(i) // golden advance
		c.sync(&snap, true, true)
		touch(i * 3) // faulty window
		c.sync(&snap, false, true)
	}
}
