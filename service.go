package avgi

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"avgi/internal/campaign"
	"avgi/internal/core"
	"avgi/internal/obs"
	"avgi/internal/prog"
)

// This file is the assessment service core behind cmd/avgid: a
// long-running, concurrently callable façade over the same campaign
// executor the Study uses (sched.go), generalised to requests that vary
// machine, fault count and seed instead of a fixed study grid. See
// docs/SERVICE.md.
//
// The cache hierarchy a request falls through:
//
//  1. Flight map (memory): concurrent identical requests coalesce onto one
//     execution, and the most recent completed executions
//     (ShardCacheEntries, with a journal) answer repeats without touching
//     the journal — no disk read, no decode, no simulation.
//  2. Journal (durable): a fully journalled shard of the request's
//     (structure, workload, mode, window) and binding (machine, program,
//     seed, faults) answers with zero simulation via a strictly read-only
//     LoadAll (the canonical shard plus any fleet node's part shards) —
//     the same shard a Study of that campaign writes.
//  3. Simulation: the campaign runs under the requesting tenant's carved
//     budget share and appends to the journal as chunks complete, so the
//     next identical request is a pure cache hit.

// ServiceConfig parameterises an assessment service.
type ServiceConfig struct {
	// Workers is the global worker budget shared by every campaign the
	// service runs (0 = all CPUs).
	Workers int

	// JournalDir enables the durable result cache: campaigns append to
	// NDJSON shards under this directory in the same layout a Study writes
	// (each shard's file name carries its full binding, seed and fault
	// count included), and fully journalled requests — a study's among
	// them — are answered without simulating. Empty disables caching
	// (every miss simulates).
	JournalDir string

	// ShardCacheEntries bounds how many completed campaigns the flight map
	// keeps in memory in front of the journal, least recently used first:
	// repeated identical requests are answered without re-reading and
	// re-decoding the NDJSON shard. 0 defaults to 64 entries; negative
	// keeps none. Only meaningful with JournalDir set (without a journal
	// the service keeps nothing once a campaign completes).
	ShardCacheEntries int

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

// serviceObs holds the avgid-specific instruments (nil, recording
// nothing, when the service has no metrics registry).
type serviceObs struct {
	inflight  *obs.Gauge
	seconds   *obs.Histogram
	cacheHits *obs.Counter // requests answered by a retained completed flight
}

// Service is a long-running assessment engine: Assess may be called from
// any number of goroutines (one per HTTP request in cmd/avgid).
type Service struct {
	Cfg ServiceConfig
	*executor

	srv serviceObs

	mu       sync.Mutex
	runners  map[string]*runnerSlot      // (machine, workload) -> lazy golden
	tenants  map[string]*campaign.Budget // tenant -> carved share
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

// defaultShardCacheEntries is how many completed flights a journalled
// service keeps when ServiceConfig.ShardCacheEntries is zero. At the
// default 400-fault sample that is ~25k Results — small next to one golden
// trace.
const defaultShardCacheEntries = 64

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
	retain := 0
	if cfg.JournalDir != "" && cfg.ShardCacheEntries >= 0 {
		retain = cfg.ShardCacheEntries
		if retain == 0 {
			retain = defaultShardCacheEntries
		}
	}
	s := &Service{
		Cfg:      cfg,
		executor: &executor{resume: true, dist: cfg.Dist, obs: cfg.Obs},
		runners:  make(map[string]*runnerSlot),
		tenants:  make(map[string]*campaign.Budget),
		requests: make(map[uint64]*RequestInfo),
	}
	if err := s.init(cfg.JournalDir, cfg.Workers, retain, "avgi_server", nil, "service"); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	reg := cfg.Obs.Registry()
	s.srv.inflight = reg.Gauge("avgi_server_inflight_requests",
		"assessment requests currently being served", nil)
	s.srv.seconds = reg.Histogram("avgi_server_request_seconds",
		"assessment request service time",
		[]float64{0.001, 0.01, 0.1, 1, 10, 60, 600}, nil)
	if retain > 0 {
		s.srv.cacheHits = reg.Counter("avgi_server_shard_cache_hits_total",
			"assessments served from a retained completed flight (no journal read, no simulation)", nil)
		s.flights.evictions = reg.Counter("avgi_server_shard_cache_evictions_total",
			"completed flights evicted from memory to respect ShardCacheEntries", nil)
	}
	return s, nil
}

// TenantCap reports how many of the global workers one tenant's campaigns
// may hold at once: ⌈3/4·W⌉, clamped to W-1 when W >= 2 so a single tenant
// can never hold the entire budget — the no-starvation guarantee (see
// campaign.Budget.Carve) — and 1 for a one-worker budget.
func (s *Service) TenantCap() int {
	w := s.budget.Cap()
	if w < 2 {
		return 1
	}
	return min((3*w+3)/4, w-1)
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
	b.SetGauge(s.obs.Registry().Gauge("avgi_server_tenant_busy",
		"workers currently held by one tenant", map[string]string{"tenant": tenant}))
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
		cfg, err := MachineByName(machine)
		if err != nil {
			slot.err = err
			return
		}
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
		// Same early exit as both CLIs: a fleet mixing avgid and avgi
		// workers must merge shards with identical SimCycles.
		r.Configure(s.Cfg.Obs, nil, true)
		slot.r = r
	})
	return slot.r, slot.err
}

// normalize validates a request and fills its defaults; the normalised
// request is echoed in the response so clients see what actually ran.
func (s *Service) normalize(req AssessRequest) (AssessRequest, assessKey, error) {
	var key assessKey
	if req.Machine == "" {
		req.Machine = "a72"
	}
	if _, err := MachineByName(req.Machine); err != nil {
		return req, key, err
	}
	req.Machine = strings.ToLower(req.Machine)
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

// Assess serves one assessment request: a kept or running flight, a
// journal hit, or a simulation under the tenant's budget share — in that
// order of preference. It is safe for concurrent use.
func (s *Service) Assess(req AssessRequest) (resp *AssessResponse, err error) {
	// Every request is counted once, when it leaves: "error" unless it
	// returns an answer, under its tenant once the tenant is valid.
	tenant, outcome := invalidTenant, "error"
	defer func() {
		s.obs.Registry().Counter("avgi_server_requests_total",
			"assessment requests by tenant and outcome (hit, miss, coalesced, error)",
			map[string]string{"tenant": tenant, "outcome": outcome}).Inc()
	}()
	norm, key, err := s.normalize(req)
	if err != nil {
		return nil, err
	}
	tenant = norm.Tenant
	r, err := s.runner(norm.Machine, norm.Workload)
	if err != nil {
		return nil, err
	}

	info := s.registerRequest(norm)
	start := time.Now()
	s.srv.inflight.Add(1)
	defer s.srv.inflight.Add(-1)
	defer func() {
		s.srv.seconds.Observe(time.Since(start).Seconds())
		if p := recover(); p != nil {
			s.finishRequest(info, StateFailed, fmt.Sprint(p))
			panic(p) // let cmd/avgid's handler turn it into a 500
		}
		if err != nil {
			s.finishRequest(info, StateFailed, err.Error())
		} else {
			s.finishRequest(info, StateDone, "")
		}
	}()

	res, resumed, how := s.run(key, r, s.tenantBudget(norm.Tenant))
	if res == nil {
		return nil, fmt.Errorf("assessment failed: coalesced execution returned no results")
	}
	if how == retained {
		// The memory tier answers like a journal hit, without the journal.
		resumed = len(res)
		s.srv.cacheHits.Inc()
	}

	outcome = "miss"
	meta := AssessMeta{Tenant: norm.Tenant}
	switch {
	case how == joined:
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
	meta.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000

	sum := campaign.Summarize(res)
	return &AssessResponse{
		ID:      info.ID,
		Request: norm,
		Result:  AssessResult{Results: res, Summary: sum, AVF: core.AVFFromEffects(sum)},
		Meta:    meta,
	}, nil
}
