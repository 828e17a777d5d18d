package avgi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"avgi/internal/campaign"
	"avgi/internal/dist"
	"avgi/internal/journal"
	"avgi/internal/obs"
)

// This file is the study-level campaign scheduler: a single-flight
// executor keyed by (structure, workload, mode, window) in front of a
// global worker budget shared by every campaign of the study.
//
// Two problems it solves (see docs/SCHEDULING.md):
//
//  1. The old per-map caching had a check-then-act race: two concurrent
//     callers could both miss the cache and silently run the same
//     multi-thousand-fault campaign twice, double-announcing progress
//     totals. Single-flight makes the second caller block on the first
//     caller's in-flight result instead.
//
//  2. Experiments used to walk (structure, workload) pairs serially, so
//     each campaign's tail drained the worker pool to idle before the
//     next pair started. With all campaigns drawing from one
//     campaign.Budget, Prefetch overlaps pairs: one campaign's tail is
//     filled with the next campaign's head, keeping every core busy
//     across the whole grid — how the paper's 726k-injection evaluation
//     saturates its 192-core servers.
//
// Determinism: results are byte-identical to serial execution. Fault
// lists are deterministic per (structure, workload, seed), and each
// campaign worker owns a fixed contiguous chunk of its list, so only
// scheduling order changes — never outcomes.

// campaignKey identifies one deduplicated campaign execution. The window
// is part of the key because AVGI-mode campaigns with different ERT
// windows simulate different amounts of the program (exhaustive and HVF
// runs use window 0).
type campaignKey struct {
	structure, workload string
	mode                campaign.Mode
	window              uint64
}

// schedObs holds the scheduler's telemetry instruments; the zero value
// (observer absent) disables everything.
type schedObs struct {
	inflight *obs.Gauge   // campaigns currently executing
	dedup    *obs.Counter // callers served by an existing flight
	live     atomic.Int64

	// Journal instruments (registered only when the study journals).
	jAppends *obs.Counter // results appended to journal shards
	jHits    *obs.Counter // campaigns served entirely from the journal
	jResumed *obs.Counter // journalled fault results reused from shards
	jErrors  *obs.Counter // shard I/O failures (first per writer + failed opens)
}

// register wires the scheduler instruments into a registry; journal
// counters are registered only when journaled is true.
func (so *schedObs) register(reg *obs.Registry, machine string, journaled bool) {
	lb := map[string]string{"machine": machine}
	so.inflight = reg.Gauge("avgi_sched_inflight_campaigns",
		"campaigns currently executing under the scheduler", lb)
	so.dedup = reg.Counter("avgi_sched_dedup_hits_total",
		"campaign requests coalesced onto an already in-flight or completed execution", lb)
	if journaled {
		so.jAppends = reg.Counter("avgi_journal_appends_total",
			"per-fault results appended to journal shards", lb)
		so.jHits = reg.Counter("avgi_journal_hits_total",
			"campaigns loaded entirely from fully journalled shards", lb)
		so.jResumed = reg.Counter("avgi_journal_resumed_faults_total",
			"journalled fault results reused instead of re-simulated", lb)
		so.jErrors = reg.Counter("avgi_journal_errors_total",
			"journal shard I/O failures: first write/sync error per writer plus failed shard opens", lb)
	}
}

// initSched wires the scheduler state into a freshly built study. Flights
// are retained for the study's lifetime: experiments revisit the same
// (structure, workload) pairs many times and the grid is bounded.
func (s *Study) initSched() {
	s.flights = newFlightMap[campaignKey](true)
	s.budget = campaign.NewBudget(s.Cfg.Workers)
	if o := s.Cfg.Obs; o != nil && o.Metrics != nil {
		reg := o.Metrics
		lb := map[string]string{"machine": s.Cfg.Machine.Name}
		reg.Gauge("avgi_sched_budget_capacity",
			"study-wide worker budget shared by all concurrent campaigns", lb).
			Set(float64(s.budget.Cap()))
		s.budget.SetGauge(reg.Gauge("avgi_sched_budget_busy",
			"campaign workers currently drawing from the study budget", lb))
		s.sched.register(reg, s.Cfg.Machine.Name, s.Cfg.JournalDir != "")
	}
}

// Budget returns the study's global worker budget, for callers that run
// ad-hoc campaigns (e.g. the multi-bit ablation) and want them to share
// the study's capacity instead of oversubscribing it.
func (s *Study) Budget() *campaign.Budget { return s.budget }

// runCampaign is the single-flight campaign executor: exactly one
// execution per key, concurrent callers coalesce onto it, results are
// cached for the study's lifetime. A campaign that panics is evicted from
// the flight map before the panic propagates, so a transient failure
// (bad fault list, broken runner) never poisons its key: the next caller
// re-executes instead of receiving the dead flight's nil result forever.
func (s *Study) runCampaign(structure, workload string, mode Mode, window uint64) []CampaignResult {
	key := campaignKey{structure, workload, mode, window}
	res, coalesced := s.flights.do(key, func() []CampaignResult {
		if s.sched.inflight != nil {
			s.sched.inflight.Set(float64(s.sched.live.Add(1)))
			defer func() { s.sched.inflight.Set(float64(s.sched.live.Add(-1))) }()
		}
		r := s.runners[workload]
		var sp *obs.SpanRef
		if mode == campaign.ModeAVGI {
			sp = s.Cfg.Obs.Span("assess "+structure+" "+workload, "estimator",
				map[string]string{"structure": structure, "workload": workload, "window": fmt.Sprint(window)})
		}
		// Deferred (not straight-line) so a panicking campaign still closes
		// its span — otherwise one failure left the trace permanently open.
		defer sp.End()
		res, _ := s.exec().run(r, structure, workload, s.faultsFor(structure, workload),
			mode, window, s.budget)
		return res
	})
	if coalesced && s.sched.dedup != nil {
		s.sched.dedup.Inc()
	}
	return res
}

// exec assembles the study's journal-consulting campaign executor.
func (s *Study) exec() *journalExec {
	return &journalExec{
		journal: s.journal,
		resume:  s.Cfg.Resume,
		machine: s.Cfg.Machine.Name,
		variant: s.Cfg.Machine.Variant.String(),
		seed:    s.Cfg.SeedBase,
		sync:    s.Cfg.Fsync,
		dist:    s.Cfg.Dist,
		obs:     s.Cfg.Obs,
		sched:   &s.sched,
	}
}

// journalExec runs one campaign through the durable journal — the shared
// service core under both the study scheduler and the avgid assessment
// server. When the executor has a journal, a fully journalled pair loads
// instead of re-simulating, a partial shard resumes from its missing fault
// indices, and every freshly completed chunk is appended and fsynced. The
// journal is strictly best-effort: an unwritable shard degrades to an
// unjournalled run, never a failed campaign — but since Writer errors are
// sticky and otherwise invisible until Close, the first failure per shard
// is logged and counted (avgi_journal_errors_total) the moment it happens.
type journalExec struct {
	journal *journal.Journal // nil = unjournalled
	resume  bool
	machine string
	variant string
	seed    int64
	sync    journal.SyncPolicy
	dist    *DistConfig // non-nil with Fleet > 0 = distributed execution
	obs     *Observer
	sched   *schedObs
}

// run executes one campaign under budget and returns its results plus the
// number of fault results reused from the journal; resumed == len(faults)
// means a full cache hit with zero simulation.
func (je *journalExec) run(r *Runner, structure, workload string, faults []Fault,
	mode Mode, window uint64, budget *campaign.Budget) (res []CampaignResult, resumed int) {
	spec := campaign.RunSpec{Faults: faults, Mode: mode, Window: window, Budget: budget}
	if je.journal == nil {
		res, _ = r.RunCampaign(spec)
		return res, 0
	}
	key := journal.Key{Structure: structure, Workload: workload, Mode: mode.String(), Window: window}
	bind := journal.Binding{
		Machine:     je.machine,
		Variant:     je.variant,
		ProgramHash: journal.HashProgram(r.Prog),
		Seed:        je.seed,
		Faults:      len(faults),
	}
	if je.dist != nil && je.dist.Fleet > 0 {
		if res, resumed, ok := je.runDist(r, structure, workload, key, bind, faults, mode, window, budget); ok {
			return res, resumed
		}
		// A failed distributed run (unwritable part shard, broken lease
		// transport) degrades to plain local execution below — the node
		// stops contributing to the fleet but still answers its caller.
	}
	var prior map[int]CampaignResult
	if je.resume {
		var err error
		prior, err = je.journal.Load(key, bind)
		if err != nil {
			// Mismatched or corrupt header: the shard belongs to a
			// different configuration or build. Refuse its records and
			// re-simulate (the Writer below truncates it).
			je.obs.Logf("journal: %s/%s %s: %v; re-simulating", structure, workload, mode, err)
			prior = nil
		}
		if len(prior) > 0 && je.sched.jResumed != nil {
			je.sched.jResumed.Add(uint64(len(prior)))
		}
		if len(prior) == len(faults) {
			// Full hit: the pair is already durable, no simulation at all.
			if je.sched.jHits != nil {
				je.sched.jHits.Inc()
			}
			out := make([]CampaignResult, len(faults))
			for i := range out {
				out[i] = prior[i]
			}
			return out, len(faults)
		}
	}
	spec.Prior = prior
	w, err := je.journal.Writer(key, bind, je.resume && len(prior) > 0)
	if err != nil {
		je.obs.Logf("journal: %s/%s %s: %v; campaign will run unjournalled", structure, workload, mode, err)
		if je.sched.jErrors != nil {
			je.sched.jErrors.Inc()
		}
		res, _ = r.RunCampaign(spec)
		return res, len(prior)
	}
	w.SetSyncPolicy(je.sync)
	// Surface the first I/O failure when it strikes, not at Close: a
	// long-running service would otherwise simulate for hours believing it
	// was journalling. The writer disables itself after the first error, so
	// the hook fires at most once per shard.
	w.OnError(func(err error) {
		je.obs.Logf("journal: %s/%s %s: write failed: %v; shard writes disabled, campaign continues unjournalled",
			structure, workload, mode, err)
		if je.sched.jErrors != nil {
			je.sched.jErrors.Inc()
		}
	})
	var appended func(uint64)
	if c := je.sched.jAppends; c != nil {
		appended = c.Add
	}
	spec.Sink = journal.NewChunkSink(w, prior, appended)
	res, _ = r.RunCampaign(spec)
	if err := w.Close(); err != nil {
		je.obs.Logf("journal: %s/%s %s: %v; shard may be incomplete", structure, workload, mode, err)
	}
	return res, len(prior)
}

// runDist executes one campaign as this node's share of a distributed
// fleet (see internal/dist and docs/DISTRIBUTED.md). ok=false means the
// distributed run failed and the caller should fall back to plain local
// execution; resumed counts the fault results that were already durable
// somewhere in the fleet's journal before this run.
func (je *journalExec) runDist(r *Runner, structure, workload string,
	key journal.Key, bind journal.Binding, faults []Fault,
	mode Mode, window uint64, budget *campaign.Budget) (res []CampaignResult, resumed int, ok bool) {
	prior, err := je.journal.LoadAll(key, bind)
	if err != nil {
		prior = nil
	}
	if len(prior) > 0 && je.sched.jResumed != nil {
		je.sched.jResumed.Add(uint64(len(prior)))
	}
	if len(prior) == len(faults) && je.sched.jHits != nil {
		je.sched.jHits.Inc()
	}
	res, err = dist.Run(dist.Config{
		Journal:      je.journal,
		Leaser:       je.dist.leaser(),
		Owner:        je.dist.Owner,
		Fleet:        je.dist.Fleet,
		LocalWorkers: budget.Cap(),
		TTL:          je.dist.LeaseTTL,
		Sync:         je.sync,
		Obs:          je.obs,
	}, r, faults, key, bind, mode, window)
	if err != nil {
		je.obs.Logf("dist: %s/%s %s: %v; falling back to local execution", structure, workload, mode, err)
		if je.sched.jErrors != nil {
			je.sched.jErrors.Inc()
		}
		return nil, 0, false
	}
	// Per-node append counts live on avgi_dist_faults_total (this node may
	// have simulated only part of the missing work; the rest of the fleet
	// journalled the remainder into its own part shards).
	return res, len(prior), true
}

// Prefetch dispatches the campaigns of every (structure, workload) pair in
// the given mode concurrently under the study's worker budget and blocks
// until all have completed. Pairs already cached (or in flight) coalesce
// for free, so prefetching is always safe to layer in front of a serial
// consumption loop. mode must be ModeExhaustive or ModeHVF — AVGI-mode
// campaigns need per-structure windows; use PrefetchAVGI.
func (s *Study) Prefetch(structures, workloads []string, mode Mode) {
	if mode == campaign.ModeAVGI {
		panic("avgi: Prefetch cannot derive AVGI windows; use PrefetchAVGI")
	}
	var wg sync.WaitGroup
	for _, structure := range structures {
		for _, w := range workloads {
			wg.Add(1)
			go func(structure, w string) {
				defer wg.Done()
				s.runCampaign(structure, w, mode, 0)
			}(structure, w)
		}
	}
	wg.Wait()
}

// PrefetchAVGI overlaps AVGI-mode campaigns across pairs, deriving each
// structure's ERT stop window from the estimator exactly as AVGIRun does.
func (s *Study) PrefetchAVGI(est *Estimator, structures, workloads []string) {
	var wg sync.WaitGroup
	for _, structure := range structures {
		for _, w := range workloads {
			wg.Add(1)
			go func(structure, w string) {
				defer wg.Done()
				window := est.WindowFor(structure, s.runners[w].Golden.Cycles)
				s.runCampaign(structure, w, campaign.ModeAVGI, window)
			}(structure, w)
		}
	}
	wg.Wait()
}

// RunAll prefetches the full (structure × workload) grid of the study in
// the given mode — the bulk-dispatch entry point for experiments that
// consume every pair (Table II, Fig. 9, Fig. 10).
func (s *Study) RunAll(mode Mode) {
	s.Prefetch(s.Cfg.Structures, s.WorkloadNames(), mode)
}
