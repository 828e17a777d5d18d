package avgi

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"avgi/internal/campaign"
	"avgi/internal/core"
	"avgi/internal/journal"
	"avgi/internal/obs"
	"avgi/internal/prog"
)

// This file is the assessment service core behind cmd/avgid: a
// long-running, concurrently callable façade over the same single-flight
// executor and durable journal the Study scheduler uses, generalised to
// requests that vary machine, fault count and seed instead of a fixed
// study grid. See docs/SERVICE.md.
//
// The cache hierarchy a request falls through:
//
//  1. Journal (durable): a fully journalled (structure, workload, mode,
//     window) shard under the request's (machine, seed, faults) namespace
//     answers with zero simulation via a strictly read-only Load.
//  2. Flight map (in-flight): concurrent identical requests coalesce onto
//     one execution. Unlike the Study (which retains flights for its
//     lifetime over a bounded grid), service flights are evicted on
//     completion — the journal is the durable cache, and a server that
//     retained every distinct request ever seen would grow without bound.
//  3. Simulation: the campaign runs under the requesting tenant's carved
//     budget share and appends to the journal as chunks complete, so the
//     next identical request is a pure cache hit.

// ServiceConfig parameterises an assessment service.
type ServiceConfig struct {
	// Workers is the global worker budget shared by every campaign the
	// service runs (0 = all CPUs).
	Workers int

	// TenantWorkers caps how many of the global workers one tenant's
	// campaigns may hold at once. 0 derives max(1, 3/4·Workers), always
	// clamped to Workers-1 when Workers >= 2 so a single tenant can never
	// hold the entire budget — the no-starvation guarantee (see
	// campaign.Budget.Carve).
	TenantWorkers int

	// JournalDir enables the durable result cache: campaigns append to
	// NDJSON shards namespaced by (machine, seed, faults) under this
	// directory, and fully journalled requests are answered without
	// simulating. Empty disables caching (every miss simulates).
	JournalDir string

	// ShardCacheEntries sizes the in-memory decoded-shard LRU in front of
	// the journal: repeated identical requests are answered from memory
	// without re-reading and re-decoding the NDJSON shard. 0 defaults to
	// 64 entries; negative disables the cache. Only meaningful with
	// JournalDir set (the cache fronts the durable journal).
	ShardCacheEntries int

	// Fsync selects the journal shard fsync cadence: SyncChunk (default),
	// SyncEvery or SyncOff. See docs/ROBUSTNESS.md.
	Fsync SyncPolicy

	// Dist, when non-nil with Fleet > 0, runs every campaign this service
	// simulates as the node's share of a distributed fleet (requires
	// JournalDir). See docs/DISTRIBUTED.md.
	Dist *DistConfig

	// Obs receives service telemetry: avgi_server_* metrics, campaign
	// progress, spans and the journal counters. See docs/OBSERVABILITY.md.
	Obs *Observer
}

// AssessRequest is one assessment job — the JSON body of POST /v1/assess.
type AssessRequest struct {
	// Machine selects the microarchitecture: "a72" (64-bit, default) or
	// "a15" (32-bit).
	Machine string `json:"machine,omitempty"`
	// Structure is the fault target (Table II name, e.g. "RF").
	Structure string `json:"structure"`
	// Workload is the benchmark name (e.g. "sha").
	Workload string `json:"workload"`
	// Mode is "exhaustive", "hvf" or "avgi".
	Mode string `json:"mode"`
	// Window is the ERT stop window in cycles; required for mode "avgi",
	// forbidden otherwise.
	Window uint64 `json:"window,omitempty"`
	// Faults is the statistical sample size (default 400).
	Faults int `json:"faults,omitempty"`
	// Seed makes the fault sample reproducible (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Tenant attributes the request to a worker-budget share; empty means
	// the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
}

// AssessResult is the cache-independent payload of a response: two
// requests for the same assessment must marshal to byte-identical
// AssessResults whether they were simulated, journal hits or coalesced.
type AssessResult struct {
	Results []CampaignResult `json:"results"`
	Summary CampaignSummary  `json:"summary"`
	AVF     AVF              `json:"avf"`
}

// AssessMeta describes how one request was served; it varies between
// cache hits and misses and therefore lives outside AssessResult.
type AssessMeta struct {
	// JournalHit is true when the request was answered entirely from the
	// durable journal with zero simulation.
	JournalHit bool `json:"journalHit"`
	// Coalesced is true when this request rode an identical in-flight
	// request's execution (its SimulatedFaults/ResumedFaults are reported
	// as zero: the work was accounted to the leader).
	Coalesced bool `json:"coalesced"`
	// SimulatedFaults counts faults actually simulated for this request;
	// ResumedFaults counts results reused from the journal.
	SimulatedFaults int `json:"simulatedFaults"`
	ResumedFaults   int `json:"resumedFaults"`
	// Tenant is the budget share the request drew from.
	Tenant string `json:"tenant"`
	// ElapsedMS is the wall-clock service time.
	ElapsedMS float64 `json:"elapsedMs"`
}

// AssessResponse is the full answer to one assessment request.
type AssessResponse struct {
	ID      uint64        `json:"id"`
	Request AssessRequest `json:"request"` // normalised (defaults filled)
	Result  AssessResult  `json:"result"`
	Meta    AssessMeta    `json:"meta"`
}

// RequestState tracks a request through the service.
type RequestState string

const (
	StateRunning RequestState = "running"
	StateDone    RequestState = "done"
	StateFailed  RequestState = "failed"
)

// RequestInfo is one entry of the service's request registry — the JSON
// rows of GET /v1/requests.
type RequestInfo struct {
	ID        uint64        `json:"id"`
	Request   AssessRequest `json:"request"`
	State     RequestState  `json:"state"`
	StartedAt time.Time     `json:"startedAt"`
	EndedAt   *time.Time    `json:"endedAt,omitempty"`
	Error     string        `json:"error,omitempty"`
}

// assessKey identifies one deduplicatable assessment execution. Unlike the
// Study's campaignKey it carries machine, sample size and seed, because
// service requests vary them per call.
type assessKey struct {
	machine   string
	structure string
	workload  string
	mode      Mode
	window    uint64
	faults    int
	seed      int64
}

// serviceObs holds the avgid-specific instruments (nil-safe when the
// service has no metrics registry).
type serviceObs struct {
	reg      *obs.Registry
	inflight *obs.Gauge
	seconds  *obs.Histogram
}

func (so *serviceObs) request(tenant, outcome string) {
	if so.reg == nil {
		return
	}
	so.reg.Counter("avgi_server_requests_total",
		"assessment requests by tenant and outcome (hit, miss, coalesced, error)",
		map[string]string{"tenant": tenant, "outcome": outcome}).Inc()
}

func (so *serviceObs) observe(d time.Duration) {
	if so.seconds != nil {
		so.seconds.Observe(d.Seconds())
	}
}

// Service is a long-running assessment engine: Assess may be called from
// any number of goroutines (one per HTTP request in cmd/avgid).
type Service struct {
	Cfg ServiceConfig

	budget  *campaign.Budget
	flights *flightMap[assessKey]
	shards  *shardCache // nil when disabled
	sched   schedObs
	srv     serviceObs

	mu       sync.Mutex
	runners  map[string]*runnerSlot      // (machine, workload) -> lazy golden
	tenants  map[string]*campaign.Budget // tenant -> carved share
	journals map[string]*journal.Journal // (machine, seed, faults) namespace
	requests map[uint64]*RequestInfo
	done     [doneRequestsRetained]uint64 // ring of finished IDs; an overwritten ID leaves requests
	finished uint64                       // finishRequest calls so far (the ring's write cursor)
	nextID   uint64
}

type runnerSlot struct {
	once sync.Once
	r    *Runner
	err  error
}

// maxFaultsPerRequest bounds the sample size a single request may demand.
const maxFaultsPerRequest = 100_000

// doneRequestsRetained bounds the registry: completed entries beyond this
// count are pruned in completion order (running entries are never pruned).
const doneRequestsRetained = 256

// Tenant names come from request JSON and become budget carves and metric
// label values, so both their shape and their number are bounded.
const (
	maxTenantLen = 64
	tenantChars  = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
	maxTenants   = 256
	// invalidTenant labels requests rejected by validation, whatever
	// tenant string they carried.
	invalidTenant = "invalid"
)

// NewService builds the shared state; golden runs happen lazily on the
// first request that needs each (machine, workload).
func NewService(cfg ServiceConfig) (*Service, error) {
	s := &Service{
		Cfg:      cfg,
		budget:   campaign.NewBudget(cfg.Workers),
		flights:  newFlightMap[assessKey](false),
		runners:  make(map[string]*runnerSlot),
		tenants:  make(map[string]*campaign.Budget),
		journals: make(map[string]*journal.Journal),
		requests: make(map[uint64]*RequestInfo),
	}
	if cfg.JournalDir != "" {
		// Fail now, not on the first request, if the cache root is unusable.
		if _, err := journal.Open(cfg.JournalDir); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	if cfg.Dist != nil && cfg.Dist.Fleet > 0 && cfg.JournalDir == "" {
		return nil, fmt.Errorf("service: distributed campaigns require JournalDir (the shared coordination substrate)")
	}
	if cfg.JournalDir != "" && cfg.ShardCacheEntries >= 0 {
		entries := cfg.ShardCacheEntries
		if entries == 0 {
			entries = defaultShardCacheEntries
		}
		var reg *obs.Registry
		if cfg.Obs != nil {
			reg = cfg.Obs.Metrics
		}
		s.shards = newShardCache(entries, reg)
	}
	if o := cfg.Obs; o != nil && o.Metrics != nil {
		reg := o.Metrics
		reg.Gauge("avgi_server_budget_capacity",
			"global worker budget shared by all tenants", nil).
			Set(float64(s.budget.Cap()))
		s.budget.SetGauge(reg.Gauge("avgi_server_budget_busy",
			"workers currently held across all tenants", nil))
		s.srv.reg = reg
		s.srv.inflight = reg.Gauge("avgi_server_inflight_requests",
			"assessment requests currently being served", nil)
		s.srv.seconds = reg.Histogram("avgi_server_request_seconds",
			"assessment request service time",
			[]float64{0.001, 0.01, 0.1, 1, 10, 60, 600}, nil)
		s.sched.register(reg, "service", cfg.JournalDir != "")
	}
	return s, nil
}

// TenantCap reports the per-tenant worker cap in force.
func (s *Service) TenantCap() int {
	w := s.budget.Cap()
	cap := s.Cfg.TenantWorkers
	if cap <= 0 {
		cap = (3*w + 3) / 4
	}
	if w >= 2 && cap >= w {
		cap = w - 1
	}
	if cap < 1 {
		cap = 1
	}
	return cap
}

// Budget returns the global worker budget (test hook).
func (s *Service) Budget() *campaign.Budget { return s.budget }

// tenantBudget returns the tenant's carved share, carving it on first use;
// nil when the tenant is new and maxTenants are already known.
func (s *Service) tenantBudget(tenant string) *campaign.Budget {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.tenants[tenant]; ok {
		return b
	}
	if len(s.tenants) >= maxTenants {
		return nil
	}
	b := s.budget.Carve(s.TenantCap())
	if s.srv.reg != nil {
		b.SetGauge(s.srv.reg.Gauge("avgi_server_tenant_busy",
			"workers currently held by one tenant", map[string]string{"tenant": tenant}))
	}
	s.tenants[tenant] = b
	return b
}

// runner returns (building on first use) the golden-run state for one
// (machine, workload); concurrent requests share a single golden run.
func (s *Service) runner(machine, workload string) (*Runner, error) {
	rk := machine + "/" + workload
	s.mu.Lock()
	slot, ok := s.runners[rk]
	if !ok {
		slot = &runnerSlot{}
		s.runners[rk] = slot
	}
	s.mu.Unlock()
	slot.once.Do(func() {
		cfg := machineConfig(machine)
		w, err := prog.ByName(workload)
		if err != nil {
			slot.err = err
			return
		}
		sp := s.Cfg.Obs.Span("golden "+workload, "golden",
			map[string]string{"machine": cfg.Name, "workload": workload})
		r, err := campaign.NewRunner(cfg, w.Build(cfg.Variant))
		sp.End()
		if err != nil {
			slot.err = fmt.Errorf("golden %s/%s: %w", machine, workload, err)
			return
		}
		// Same window oracle as both CLIs: a fleet mixing avgid and avgi
		// workers must merge shards with identical SimCycles.
		r.Configure(s.Cfg.Obs, nil, 0, true)
		slot.r = r
	})
	return slot.r, slot.err
}

// journalFor returns the journal namespace for one (machine, seed, faults)
// configuration, or nil when caching is disabled. Namespacing keeps shard
// bindings stable: without it, requests differing only in seed or sample
// size would alternately truncate each other's shards (the shard path is
// derived from structure/workload/mode/window alone).
func (s *Service) journalFor(machine string, seed int64, faults int) *journal.Journal {
	if s.Cfg.JournalDir == "" {
		return nil
	}
	ns := fmt.Sprintf("%s-seed%d-n%d", machine, seed, faults)
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.journals[ns]; ok {
		return j
	}
	j, err := journal.Open(filepath.Join(s.Cfg.JournalDir, ns))
	if err != nil {
		// Best-effort cache: a broken namespace degrades to simulation.
		s.Cfg.Obs.Logf("service: journal namespace %s: %v; requests will run uncached", ns, err)
		if s.sched.jErrors != nil {
			s.sched.jErrors.Inc()
		}
		s.journals[ns] = nil
		return nil
	}
	s.journals[ns] = j
	return j
}

func machineConfig(machine string) MachineConfig {
	if machine == "a15" {
		return ConfigA15()
	}
	return ConfigA72()
}

// normalize validates a request and fills its defaults; the normalised
// request is echoed in the response so clients see what actually ran.
func (s *Service) normalize(req AssessRequest) (AssessRequest, assessKey, error) {
	var key assessKey
	switch strings.ToLower(req.Machine) {
	case "", "a72":
		req.Machine = "a72"
	case "a15":
		req.Machine = "a15"
	default:
		return req, key, fmt.Errorf("unknown machine %q (want a72 or a15)", req.Machine)
	}
	if err := ValidateStructure(req.Structure); err != nil {
		return req, key, err
	}
	if _, err := prog.ByName(req.Workload); err != nil {
		return req, key, err
	}
	mode, err := ParseMode(req.Mode, req.Window)
	if err != nil {
		return req, key, err
	}
	req.Mode = mode.String()
	if req.Faults == 0 {
		req.Faults = 400
	}
	if req.Faults < 0 || req.Faults > maxFaultsPerRequest {
		return req, key, fmt.Errorf("faults %d outside [1, %d]", req.Faults, maxFaultsPerRequest)
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if len(req.Tenant) > maxTenantLen || strings.Trim(req.Tenant, tenantChars) != "" {
		return req, key, fmt.Errorf("tenant %.80q: want 1-%d bytes of [A-Za-z0-9._-]", req.Tenant, maxTenantLen)
	}
	// Last, so a request rejected for another reason admits no tenant.
	if s.tenantBudget(req.Tenant) == nil {
		return req, key, fmt.Errorf("tenant %q: this server already serves %d tenants", req.Tenant, maxTenants)
	}
	key = assessKey{
		machine: req.Machine, structure: req.Structure, workload: req.Workload,
		mode: mode, window: req.Window, faults: req.Faults, seed: req.Seed,
	}
	return req, key, nil
}

func (s *Service) registerRequest(req AssessRequest) *RequestInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	info := &RequestInfo{ID: s.nextID, Request: req, State: StateRunning, StartedAt: time.Now()}
	s.requests[info.ID] = info
	return info
}

// finishRequest completes an entry and retires the one that finished
// doneRequestsRetained completions earlier (IDs start at 1, so an unused
// ring slot deletes nothing).
func (s *Service) finishRequest(info *RequestInfo, state RequestState, errMsg string) {
	now := time.Now()
	s.mu.Lock()
	info.State = state
	info.EndedAt = &now
	info.Error = errMsg
	slot := &s.done[s.finished%doneRequestsRetained]
	delete(s.requests, *slot)
	*slot = info.ID
	s.finished++
	s.mu.Unlock()
}

// Requests snapshots the registry, newest first.
func (s *Service) Requests() []RequestInfo {
	s.mu.Lock()
	out := make([]RequestInfo, 0, len(s.requests))
	for _, r := range s.requests {
		out = append(out, *r)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// Request returns one registry entry by ID.
func (s *Service) Request(id uint64) (RequestInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.requests[id]; ok {
		return *r, true
	}
	return RequestInfo{}, false
}

// Assess serves one assessment request: memory hit, journal hit, coalesce,
// or simulate under the tenant's budget share — in that order of
// preference. It is safe for concurrent use.
func (s *Service) Assess(req AssessRequest) (resp *AssessResponse, err error) {
	norm, key, err := s.normalize(req)
	if err != nil {
		s.srv.request(invalidTenant, "error")
		return nil, err
	}
	// Memory tier: a decoded-shard LRU hit answers without the runner, the
	// journal or the flight map — no golden run, no disk read, no decode.
	res, cached := s.shards.get(key)
	var r *Runner
	if !cached {
		if r, err = s.runner(norm.Machine, norm.Workload); err != nil {
			s.srv.request(norm.Tenant, "error")
			return nil, err
		}
	}

	info := s.registerRequest(norm)
	start := time.Now()
	if s.srv.inflight != nil {
		s.srv.inflight.Add(1)
		defer s.srv.inflight.Add(-1)
	}
	defer func() {
		s.srv.observe(time.Since(start))
		if p := recover(); p != nil {
			s.finishRequest(info, StateFailed, fmt.Sprint(p))
			s.srv.request(norm.Tenant, "error")
			panic(p) // let cmd/avgid's handler turn it into a 500
		}
		if err != nil {
			s.finishRequest(info, StateFailed, err.Error())
			s.srv.request(norm.Tenant, "error")
		} else {
			s.finishRequest(info, StateDone, "")
		}
	}()

	resumed, coalesced := len(res), false
	if !cached {
		res, resumed, coalesced = s.execute(norm, key, r)
		if res == nil {
			return nil, fmt.Errorf("assessment failed: coalesced execution returned no results")
		}
		// Whatever tier answered, the result set is now complete and durable
		// (or deterministic-reproducible); keep it decoded for the next hit.
		s.shards.put(key, res)
	}

	outcome := "miss"
	meta := AssessMeta{Tenant: norm.Tenant}
	switch {
	case coalesced:
		outcome = "coalesced"
		meta.Coalesced = true
	case resumed == len(res) && resumed > 0:
		outcome = "hit"
		meta.JournalHit = true
		meta.ResumedFaults = resumed
	default:
		meta.ResumedFaults = resumed
		meta.SimulatedFaults = len(res) - resumed
	}
	s.srv.request(norm.Tenant, outcome)
	meta.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000

	sum := campaign.Summarize(res)
	return &AssessResponse{
		ID:      info.ID,
		Request: norm,
		Result:  AssessResult{Results: res, Summary: sum, AVF: core.AVFFromEffects(sum)},
		Meta:    meta,
	}, nil
}

// execute runs the journal, flight and simulation tiers for one request:
// one result per fault (nil if the execution it rode panicked), how many of
// them the journal supplied, and whether an identical in-flight request did
// the work.
func (s *Service) execute(norm AssessRequest, key assessKey, r *Runner) (res []CampaignResult, resumed int, coalesced bool) {
	faults := r.FaultList(norm.Structure, norm.Faults, norm.Seed)
	je := &journalExec{
		journal: s.journalFor(norm.Machine, norm.Seed, norm.Faults),
		resume:  true,
		machine: machineConfig(norm.Machine).Name,
		variant: machineConfig(norm.Machine).Variant.String(),
		seed:    norm.Seed,
		sync:    s.Cfg.Fsync,
		dist:    s.Cfg.Dist,
		obs:     s.Cfg.Obs,
		sched:   &s.sched,
	}
	for attempt := 0; ; attempt++ {
		res, coalesced = s.flights.do(key, func() []CampaignResult {
			out, re := je.run(r, norm.Structure, norm.Workload, faults,
				key.mode, norm.Window, s.tenantBudget(norm.Tenant))
			resumed = re
			return out
		})
		if res != nil || !coalesced || attempt >= 1 {
			return res, resumed, coalesced
		}
		// nil from a coalesced wait means the leader panicked and was
		// evicted; retry once as (most likely) the new leader so this
		// request surfaces the real failure instead of an opaque nil.
	}
}
