package avgi

import (
	"testing"
)

func cacheKey(seed int64) assessKey {
	return assessKey{machine: "a72", structure: "RF", workload: "crc32",
		mode: ModeHVF, faults: 4, seed: seed}
}

func TestShardCacheLRU(t *testing.T) {
	c := newShardCache(2, nil)
	res := func(n int) []CampaignResult { return make([]CampaignResult, n) }

	if _, ok := c.get(cacheKey(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.put(cacheKey(1), res(1))
	c.put(cacheKey(2), res(2))
	if got, ok := c.get(cacheKey(1)); !ok || len(got) != 1 {
		t.Fatalf("key 1: ok=%v len=%d", ok, len(got))
	}
	// Key 1 is now most recent; inserting key 3 must evict key 2.
	c.put(cacheKey(3), res(3))
	if _, ok := c.get(cacheKey(2)); ok {
		t.Error("LRU evicted the wrong entry (key 2 should be gone)")
	}
	if _, ok := c.get(cacheKey(1)); !ok {
		t.Error("recently used key 1 was evicted")
	}
	if _, ok := c.get(cacheKey(3)); !ok {
		t.Error("freshly inserted key 3 missing")
	}
	if c.len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.len())
	}

	// Empty result sets are never cached; a nil cache is a valid miss.
	c.put(cacheKey(4), nil)
	if _, ok := c.get(cacheKey(4)); ok {
		t.Error("empty result set was cached")
	}
	var nilCache *shardCache
	if _, ok := nilCache.get(cacheKey(1)); ok {
		t.Error("nil cache reported a hit")
	}
	nilCache.put(cacheKey(1), res(1)) // must not panic
}

// TestServiceShardCacheHit pins the memory tier: the second identical
// request is served from the decoded-shard LRU (counted on
// avgi_server_shard_cache_hits_total) with a byte-identical payload, and
// disabling the cache falls back to plain journal hits.
func TestServiceShardCacheHit(t *testing.T) {
	s := newTestService(t, t.TempDir())
	first, err := s.Assess(svcRequest())
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Assess(svcRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Meta.JournalHit || second.Meta.SimulatedFaults != 0 {
		t.Fatalf("second request meta %+v, want a zero-simulation hit", second.Meta)
	}
	if resultBytes(t, first) != resultBytes(t, second) {
		t.Error("cache-served payload differs from the simulated one")
	}
	reg := s.Cfg.Obs.Metrics
	hits := reg.Counter("avgi_server_shard_cache_hits_total", "", nil).Value()
	if hits != 1 {
		t.Errorf("avgi_server_shard_cache_hits_total = %d, want 1", hits)
	}

	// Cache disabled: the repeat request must still be a (journal) hit,
	// with the LRU out of the picture.
	s2, err := NewService(ServiceConfig{
		Workers: 4, JournalDir: s.Cfg.JournalDir, ShardCacheEntries: -1,
		Obs: NewObserver(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s2.shards != nil {
		t.Fatal("ShardCacheEntries < 0 must disable the cache")
	}
	third, err := s2.Assess(svcRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !third.Meta.JournalHit {
		t.Errorf("journal-only service meta %+v, want a journal hit", third.Meta)
	}
	if resultBytes(t, first) != resultBytes(t, third) {
		t.Error("journal-served payload differs from the simulated one")
	}
}

// TestServiceShardCacheEviction fills the LRU past capacity and checks the
// eviction counter moves while hits keep being served for live keys.
func TestServiceShardCacheEviction(t *testing.T) {
	s, err := NewService(ServiceConfig{
		Workers: 2, JournalDir: t.TempDir(), ShardCacheEntries: 2,
		Obs: NewObserver(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		req := svcRequest()
		req.Seed = seed
		if _, err := s.Assess(req); err != nil {
			t.Fatal(err)
		}
	}
	if s.shards.len() != 2 {
		t.Errorf("cache holds %d entries, want capacity 2", s.shards.len())
	}
	ev := s.Cfg.Obs.Metrics.Counter("avgi_server_shard_cache_evictions_total", "", nil).Value()
	if ev != 1 {
		t.Errorf("avgi_server_shard_cache_evictions_total = %d, want 1", ev)
	}
}

// benchAssessHit measures the repeat-request latency of one service tier:
// the decoded-shard memory LRU versus the journal (disk read + NDJSON
// decode per hit). The harness measures both tiers on every run
// (service.assess_hit_us / service.assess_journal_hit_ms, bench/README.md).
func benchAssessHit(b *testing.B, cacheEntries int) {
	s, err := NewService(ServiceConfig{
		Workers: 4, JournalDir: b.TempDir(), ShardCacheEntries: cacheEntries,
	})
	if err != nil {
		b.Fatal(err)
	}
	req := svcRequest()
	req.Faults = 400 // realistic shard size: the default sample
	if _, err := s.Assess(req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Assess(req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Meta.JournalHit {
			b.Fatalf("repeat request was not a hit: %+v", resp.Meta)
		}
	}
}

func BenchmarkAssessShardCacheHit(b *testing.B) { benchAssessHit(b, 0) }
func BenchmarkAssessJournalHit(b *testing.B)    { benchAssessHit(b, -1) }
