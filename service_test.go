package avgi

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

const svcFaults = 16

func svcRequest() AssessRequest {
	return AssessRequest{
		Structure: "RF",
		Workload:  "crc32",
		Mode:      "hvf",
		Faults:    svcFaults,
		Seed:      7,
	}
}

func newTestService(t *testing.T, journalDir string) *Service {
	t.Helper()
	s, err := NewService(ServiceConfig{
		Workers:    4,
		JournalDir: journalDir,
		Obs:        NewObserver(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func resultBytes(t *testing.T, resp *AssessResponse) string {
	t.Helper()
	b, err := json.Marshal(resp.Result)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServiceSequentialHitByteIdentical is the cache-semantics acceptance
// test: the second identical request must be answered entirely from the
// journal — zero faults simulated — and its result payload must be
// byte-identical to the freshly simulated first answer.
func TestServiceSequentialHitByteIdentical(t *testing.T) {
	s := newTestService(t, t.TempDir())
	first, err := s.Assess(svcRequest())
	if err != nil {
		t.Fatal(err)
	}
	if first.Meta.JournalHit || first.Meta.Coalesced {
		t.Fatalf("first request served from a cold cache reported meta %+v", first.Meta)
	}
	if first.Meta.SimulatedFaults != svcFaults {
		t.Errorf("first request simulated %d faults, want %d", first.Meta.SimulatedFaults, svcFaults)
	}

	second, err := s.Assess(svcRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Meta.JournalHit {
		t.Error("second identical request was not a journal hit")
	}
	if second.Meta.SimulatedFaults != 0 {
		t.Errorf("second request simulated %d faults, want 0", second.Meta.SimulatedFaults)
	}
	if second.Meta.ResumedFaults != svcFaults {
		t.Errorf("second request resumed %d faults, want %d", second.Meta.ResumedFaults, svcFaults)
	}
	if a, b := resultBytes(t, first), resultBytes(t, second); a != b {
		t.Errorf("journal-hit result diverges from fresh simulation:\n first: %s\nsecond: %s", a, b)
	}
	if hits := counterValue(t, s.Cfg.Obs.Metrics, "avgi_server_requests_total",
		map[string]string{"tenant": "default", "outcome": "hit"}); hits != 1 {
		t.Errorf("hit counter = %d, want 1", hits)
	}
}

// TestServiceAVGIMatchesEarlyExitRunner pins the service to the same
// early exit as both CLIs: a cold AVGI answer must equal, field for
// field, Runner.Run with EarlyExit on for the same faults — otherwise a
// fleet mixing avgid and avgi workers merges shards whose SimCycles differ
// from a single-process run.
func TestServiceAVGIMatchesEarlyExitRunner(t *testing.T) {
	req := svcRequest()
	req.Mode, req.Window = "avgi", 2000
	resp, err := newTestService(t, "").Assess(req)
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewRunner(ConfigA72(), req.Workload)
	if err != nil {
		t.Fatal(err)
	}
	faults := r.FaultList(req.Structure, req.Faults, req.Seed)
	full := r.Run(faults, ModeAVGI, req.Window, 4)
	r.EarlyExit = true
	want := r.Run(faults, ModeAVGI, req.Window, 4)
	if reflect.DeepEqual(full, want) {
		t.Fatal("no fault in the sample exits early; the comparison proves nothing")
	}
	if !reflect.DeepEqual(resp.Result.Results, want) {
		t.Errorf("service AVGI results diverge from the EarlyExit runner:\n got %+v\nwant %+v",
			resp.Result.Results, want)
	}
}

// TestServiceConcurrentRequestsCoalesce fires identical requests
// concurrently at an uncached service: they must coalesce onto a bounded
// number of executions and all return byte-identical results.
func TestServiceConcurrentRequestsCoalesce(t *testing.T) {
	s := newTestService(t, "") // no journal: every leader simulates
	const n = 4
	resps := make([]*AssessResponse, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resps[i], errs[i] = s.Assess(svcRequest())
		}(i)
	}
	close(start)
	wg.Wait()

	var misses, coalesced int
	ref := ""
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if resps[i].Meta.Coalesced {
			coalesced++
		} else {
			misses++
		}
		b := resultBytes(t, resps[i])
		if ref == "" {
			ref = b
		} else if b != ref {
			t.Errorf("request %d result diverges from the others", i)
		}
	}
	if coalesced == 0 {
		t.Errorf("no request coalesced (%d misses): single-flight not engaged", misses)
	}
	if misses+coalesced != n {
		t.Errorf("outcomes: %d misses + %d coalesced != %d requests", misses, coalesced, n)
	}
	if s.flights.len() != 0 {
		t.Errorf("service retained %d completed flights, want 0 (journal is the durable cache)", s.flights.len())
	}
}

// TestServiceSchedSeries: the scheduler series a service exports under
// machine="service" are live — every request that rode another's execution
// counts as a dedup hit, and the in-flight gauge returns to zero.
func TestServiceSchedSeries(t *testing.T) {
	s := newTestService(t, "") // no journal: every execution simulates
	const n = 6
	resps := make([]*AssessResponse, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var err error
			if resps[i], err = s.Assess(svcRequest()); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	executions := 0
	for _, r := range resps {
		if r != nil && !r.Meta.Coalesced {
			executions++
		}
	}
	if executions == n {
		t.Fatalf("all %d requests executed: single-flight not engaged", n)
	}
	reg := s.Cfg.Obs.Metrics
	lb := map[string]string{"machine": "service"}
	if got := counterValue(t, reg, "avgi_sched_dedup_hits_total", lb); got != uint64(n-executions) {
		t.Errorf("avgi_sched_dedup_hits_total = %d, want %d (%d requests, %d executions)", got, n-executions, n, executions)
	}
	if v := gaugeValue(t, reg, "avgi_sched_inflight_campaigns"); v != 0 {
		t.Errorf("avgi_sched_inflight_campaigns = %v at rest, want 0", v)
	}
}

// TestServiceJournalSeedsDistinct: requests differing only in seed journal
// to distinct shards side by side under <JournalDir>/<machine>-<variant>/,
// so a rerun of the first stays a full journal hit. The service keeps no
// completed flight, so the rerun is answered by the journal itself.
func TestServiceJournalSeedsDistinct(t *testing.T) {
	dir := t.TempDir()
	s, err := NewService(ServiceConfig{Workers: 4, JournalDir: dir, ShardCacheEntries: -1, Obs: NewObserver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	reqA := svcRequest()
	reqB := svcRequest()
	reqB.Seed = 8
	if _, err := s.Assess(reqA); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Assess(reqB); err != nil {
		t.Fatal(err)
	}
	again, err := s.Assess(reqA)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Meta.JournalHit || again.Meta.SimulatedFaults != 0 {
		t.Errorf("seed-8 run clobbered the seed-7 shard: meta %+v", again.Meta)
	}

	r, err := s.runner("a72", reqA.Workload)
	if err != nil {
		t.Fatal(err)
	}
	machineDir := filepath.Join(dir, r.Cfg.Name+"-"+r.Cfg.Variant.String())
	for _, seed := range []int64{reqA.Seed, reqB.Seed} {
		_, _, shard := hvfShard(t, dir, r, seed, svcFaults)
		if filepath.Dir(shard) != machineDir {
			t.Errorf("seed %d shard %s is not directly under %s", seed, shard, machineDir)
		}
		if _, err := os.Stat(shard); err != nil {
			t.Errorf("seed %d shard: %v", seed, err)
		}
	}
}

// TestServiceAnswersStudyJournal: Study and Service share one shard
// layout, so a service over a study's journal answers the study's campaign
// as a journal hit, with the study's exact results.
func TestServiceAnswersStudyJournal(t *testing.T) {
	dir := t.TempDir()
	want := distStudy(t, dir, "").Campaign("RF", "crc32", ModeHVF, 0)

	s, err := NewService(ServiceConfig{Workers: 4, JournalDir: dir, ShardCacheEntries: -1, Obs: NewObserver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	req := svcRequest()
	req.Seed = 1
	resp, err := s.Assess(req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Meta.JournalHit || resp.Meta.SimulatedFaults != 0 {
		t.Errorf("service over a study's journal: meta %+v, want a journal hit", resp.Meta)
	}
	if !reflect.DeepEqual(resp.Result.Results, want) {
		t.Error("service results diverge from the study's")
	}
}

func TestServiceValidation(t *testing.T) {
	s := newTestService(t, "")
	base := svcRequest()
	for name, mutate := range map[string]func(*AssessRequest){
		"unknown machine":   func(r *AssessRequest) { r.Machine = "m1" },
		"unknown structure": func(r *AssessRequest) { r.Structure = "TLB9" },
		// A name normalize lets through panics in Runner.FaultList: a 500.
		"core-prefixed structure": func(r *AssessRequest) { r.Structure = "c1/RF" },
		"unknown workload":        func(r *AssessRequest) { r.Workload = "doom" },
		"unknown mode":            func(r *AssessRequest) { r.Mode = "fast" },
		"avgi needs window":       func(r *AssessRequest) { r.Mode = "avgi"; r.Window = 0 },
		"stray window":            func(r *AssessRequest) { r.Window = 99 },
		"oversized sample":        func(r *AssessRequest) { r.Faults = maxFaultsPerRequest + 1 },
		"negative sample":         func(r *AssessRequest) { r.Faults = -4 },
	} {
		req := base
		mutate(&req)
		if _, err := s.Assess(req); err == nil {
			t.Errorf("%s: accepted %+v", name, req)
		}
	}
	if n := counterValue(t, s.Cfg.Obs.Metrics, "avgi_server_requests_total",
		map[string]string{"tenant": invalidTenant, "outcome": "error"}); n == 0 {
		t.Error("validation failures not counted as error outcomes")
	}
}

func TestServiceDefaultsNormalized(t *testing.T) {
	s := newTestService(t, "")
	resp, err := s.Assess(AssessRequest{Structure: "RF", Workload: "crc32", Mode: "HVF", Faults: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := resp.Request
	if r.Machine != "a72" || r.Seed != 1 || r.Tenant != "default" || r.Mode != "hvf" {
		t.Errorf("defaults not filled: %+v", r)
	}
	if len(resp.Result.Results) != 8 {
		t.Errorf("got %d results, want 8", len(resp.Result.Results))
	}
}

func TestServiceTenantCap(t *testing.T) {
	for _, tc := range []struct {
		workers, want int
	}{
		{4, 3}, // 3/4 share
		{8, 6}, // 3/4 share
		{5, 4}, // 3/4 rounded up, still below W
		{3, 2}, // rounded-up 3/4 clamped to W-1
		{2, 1}, // smallest multi-worker budget still leaves one slot free
		{1, 1}, // single worker: no headroom to reserve
	} {
		s, err := NewService(ServiceConfig{Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.TenantCap(); got != tc.want {
			t.Errorf("workers=%d: cap %d, want %d", tc.workers, got, tc.want)
		}
	}
	// Distinct tenants get distinct carves off the same global budget.
	s, _ := NewService(ServiceConfig{Workers: 4})
	a, b := s.tenantBudget("a"), s.tenantBudget("b")
	if a == b {
		t.Error("tenants share one carved budget")
	}
	if a != s.tenantBudget("a") {
		t.Error("tenant budget not cached")
	}
	if a.Cap() != s.TenantCap() {
		t.Errorf("tenant budget cap %d, want %d", a.Cap(), s.TenantCap())
	}
}

// TestServiceTwoTenantsProgress: with the global budget saturated-capable
// by one tenant, a second tenant's request still completes (end-to-end
// face of TestBudgetCarveNoStarvation).
func TestServiceTwoTenantsProgress(t *testing.T) {
	s, err := NewService(ServiceConfig{Workers: 2, Obs: NewObserver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	big := svcRequest()
	big.Tenant = "big"
	big.Faults = 32
	small := svcRequest()
	small.Tenant = "small"
	small.Workload = "sha"
	small.Faults = 8

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = s.Assess(big) }()
	go func() { defer wg.Done(); _, errs[1] = s.Assess(small) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("tenant %d: %v", i, err)
		}
	}
	if s.Budget().InUse() != 0 {
		t.Errorf("global budget not drained: %d", s.Budget().InUse())
	}
}

func TestServiceRequestRegistry(t *testing.T) {
	s := newTestService(t, "")
	resp, err := s.Assess(AssessRequest{Structure: "RF", Workload: "crc32", Mode: "hvf", Faults: 4})
	if err != nil {
		t.Fatal(err)
	}
	info, ok := s.Request(resp.ID)
	if !ok {
		t.Fatalf("request %d missing from registry", resp.ID)
	}
	if info.State != StateDone || info.EndedAt == nil {
		t.Errorf("completed request state %+v", info)
	}
	// A failed request is recorded as failed, and does not block later ones.
	if _, err := s.Assess(AssessRequest{Structure: "RF", Workload: "crc32", Mode: "bogus"}); err == nil {
		t.Fatal("bogus mode accepted")
	}
	all := s.Requests()
	if len(all) != 1 {
		// Validation failures are rejected before registration.
		t.Errorf("registry has %d entries, want 1 (validation errors are not registered)", len(all))
	}
	if all[0].ID != resp.ID {
		t.Errorf("registry order: first entry ID %d, want %d", all[0].ID, resp.ID)
	}
}

// TestServiceRegistryBounded: the registry's cost and memory must not grow
// with requests served. After thousands of warm hits no container hanging
// off the Service holds more than the retention bound plus what is running,
// the oldest completed entry is gone and a running one is not.
func TestServiceRegistryBounded(t *testing.T) {
	s := newTestService(t, t.TempDir())
	running := s.registerRequest(svcRequest()) // never finished
	cold, err := s.Assess(svcRequest())
	if err != nil {
		t.Fatal(err)
	}
	const hits = 5000
	for i := 0; i < hits; i++ {
		resp, err := s.Assess(svcRequest())
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Meta.JournalHit {
			t.Fatalf("request %d missed a warm cache: %+v", i, resp.Meta)
		}
	}

	const bound = doneRequestsRetained + 1
	sv := reflect.ValueOf(s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		switch f := sv.Field(i); f.Kind() {
		case reflect.Map, reflect.Slice, reflect.Array:
			if f.Len() > bound {
				t.Errorf("Service.%s holds %d entries after %d requests, want <= %d",
					sv.Type().Field(i).Name, f.Len(), hits+2, bound)
			}
		}
	}
	all := s.Requests()
	if len(all) != bound {
		t.Fatalf("registry lists %d entries, want %d completed + 1 running", len(all), doneRequestsRetained)
	}
	for i, r := range all[:doneRequestsRetained] {
		if want := uint64(hits + 2 - i); r.ID != want || r.State != StateDone {
			t.Fatalf("row %d: ID %d state %s, want ID %d done (newest first)", i, r.ID, r.State, want)
		}
	}
	if last := all[doneRequestsRetained]; last.ID != running.ID || last.State != StateRunning {
		t.Errorf("last row %+v, want the running request %d", last, running.ID)
	}
	if _, ok := s.Request(cold.ID); ok {
		t.Errorf("completed request %d still registered after %d later completions", cold.ID, hits)
	}
}

// TestServiceTenantBound: tenant strings arrive from outside and become
// budgets and metric label values, so a client cycling names must hit a
// wall instead of growing the process.
func TestServiceTenantBound(t *testing.T) {
	s := newTestService(t, t.TempDir())
	if _, err := s.Assess(svcRequest()); err != nil { // warms the LRU as tenant "default"
		t.Fatal(err)
	}
	assess := func(tenant string) error {
		req := svcRequest()
		req.Tenant = tenant
		_, err := s.Assess(req)
		return err
	}
	for _, bad := range []string{"a b", "x/y", `q"`, "é", strings.Repeat("a", maxTenantLen+1)} {
		if err := assess(bad); err == nil {
			t.Errorf("tenant %q accepted", bad)
		}
	}
	if err := assess(strings.Repeat("a", maxTenantLen-3) + "._-"); err != nil {
		t.Errorf("longest legal tenant rejected: %v", err)
	}

	rng := rand.New(rand.NewSource(1))
	var names []string
	for i := 0; i < 300; i++ {
		names = append(names, fmt.Sprintf("t%d-%x", i, rng.Uint64()))
	}
	admitted := 2 // "default" and the longest legal name
	for _, name := range names {
		err := assess(name)
		if admitted < maxTenants {
			if err != nil {
				t.Fatalf("tenant %d (%s) rejected: %v", admitted+1, name, err)
			}
			admitted++
		} else if err == nil {
			t.Fatalf("tenant %s accepted beyond the %d-tenant bound", name, maxTenants)
		}
	}
	if err := assess(names[0]); err != nil {
		t.Errorf("known tenant refused once the bound was reached: %v", err)
	}
	if len(s.tenants) > maxTenants {
		t.Errorf("%d tenant budgets, want <= %d", len(s.tenants), maxTenants)
	}
	labels := map[string]bool{}
	for _, fam := range s.Cfg.Obs.Metrics.Snapshot() {
		for _, sr := range fam.Series {
			if v, ok := sr.Labels["tenant"]; ok {
				labels[v] = true
			}
		}
	}
	if len(labels) > maxTenants+1 || !labels[invalidTenant] {
		t.Errorf("%d tenant label values (invalid present: %v), want <= %d including %q",
			len(labels), labels[invalidTenant], maxTenants+1, invalidTenant)
	}
}

// TestServicePublishesGoldenGauges: the service configures its runners
// through the same campaign.Runner.Configure as Study and avgisim, so the
// golden gauges docs/OBSERVABILITY.md lists appear after the first request
// touches a (machine, workload).
func TestServicePublishesGoldenGauges(t *testing.T) {
	s := newTestService(t, "")
	lb := map[string]string{"workload": "crc32", "machine": ConfigA72().Name}
	if v := s.Cfg.Obs.Metrics.Gauge("avgi_golden_cycles", "", lb).Value(); v != 0 {
		t.Fatalf("golden gauge is %v before any request", v)
	}
	if _, err := s.Assess(AssessRequest{Structure: "RF", Workload: "crc32", Mode: "hvf", Faults: 4}); err != nil {
		t.Fatal(err)
	}
	if v := s.Cfg.Obs.Metrics.Gauge("avgi_golden_cycles", "", lb).Value(); v <= 0 {
		t.Errorf("avgi_golden_cycles%v = %v after the first request, want the golden run length", lb, v)
	}
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
	if s2.flights.retain != 0 {
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
	if s.flights.len() != 2 {
		t.Errorf("cache holds %d entries, want capacity 2", s.flights.len())
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
