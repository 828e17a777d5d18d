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

// This file is the campaign executor under both the Study and the
// Service: a single-flight flight map keyed by (machine, structure,
// workload, mode, window, faults, seed) in front of a global worker budget
// shared by every concurrent campaign, with the durable journal behind it.
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

// schedObs holds the scheduler's telemetry instruments; the zero value
// (observer absent) disables everything.
type schedObs struct {
	inflight *obs.Gauge   // campaigns currently executing
	dedup    *obs.Counter // callers served by an existing flight
	live     atomic.Int64

	// Journal instruments (registered only when the executor journals).
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

// assessKey identifies one deduplicated campaign execution. The window
// is part of the key because AVGI-mode campaigns with different ERT
// windows simulate different amounts of the program (exhaustive and HVF
// runs use window 0); machine, sample size and seed are fixed for a study
// but vary per service request.
type assessKey struct {
	machine   string
	structure string
	workload  string
	mode      Mode
	window    uint64
	faults    int
	seed      int64
}

// executor runs campaigns for a Study or a Service: one worker budget,
// one flight map (single-flight plus the in-memory result cache), and the
// durable journal behind them. When the executor has a journal, a fully
// journalled campaign loads instead of re-simulating, a partial shard
// resumes from its missing fault indices, and every freshly completed
// chunk is appended and fsynced. The journal is strictly best-effort: an
// unwritable shard degrades to an unjournalled run, never a failed
// campaign — but since Writer errors are sticky and otherwise invisible
// until Close, the first failure per shard is logged and counted
// (avgi_journal_errors_total) the moment it happens.
type executor struct {
	budget  *campaign.Budget
	flights *flightMap[assessKey]
	sched   schedObs

	journal *journal.Journal // nil = unjournalled
	resume  bool
	dist    *DistConfig // non-nil with Fleet > 0 = distributed execution
	obs     *Observer
}

// init opens the journal at journalDir ("" = unjournalled), builds the
// budget and the flight map (keeping retain completed flights, see
// flightMap), and registers the executor's metrics: the budget gauges as
// <budgetPrefix>_budget_* with budgetLabels, the scheduler and journal
// series under machine. Study and Service use the same shard layout under
// journalDir: a shard's file name carries the checksum of its full binding
// (machine, variant, program, seed, fault count), so campaigns that differ
// in any of them never share a file.
func (e *executor) init(journalDir string, workers, retain int, budgetPrefix string, budgetLabels map[string]string, machine string) error {
	if e.dist != nil && e.dist.Fleet > 0 && journalDir == "" {
		return fmt.Errorf("distributed campaigns require JournalDir (the shared coordination substrate)")
	}
	if journalDir != "" {
		j, err := journal.Open(journalDir)
		if err != nil {
			return err
		}
		e.journal = j
	}
	e.budget = campaign.NewBudget(workers)
	e.flights = newFlightMap[assessKey](retain)
	if o := e.obs; o != nil && o.Metrics != nil {
		reg := o.Metrics
		reg.Gauge(budgetPrefix+"_budget_capacity",
			"worker budget shared by every concurrent campaign", budgetLabels).
			Set(float64(e.budget.Cap()))
		e.budget.SetGauge(reg.Gauge(budgetPrefix+"_budget_busy",
			"campaign workers currently holding a budget slot", budgetLabels))
		e.sched.register(reg, machine, e.journal != nil)
	}
	return nil
}

// run answers one campaign under single-flight: a retained or running
// execution of key if there is one, otherwise the journal and then the
// simulator on r under budget. It returns one result per fault (nil only
// if the executions it rode panicked), how many of them this call's own
// execution took from the journal, and how the call was served.
func (e *executor) run(key assessKey, r *Runner, budget *campaign.Budget) (res []CampaignResult, resumed int, how served) {
	for attempt := 0; ; attempt++ {
		res, how = e.flights.do(key, func() []CampaignResult {
			if e.sched.inflight != nil {
				e.sched.inflight.Set(float64(e.sched.live.Add(1)))
				defer func() { e.sched.inflight.Set(float64(e.sched.live.Add(-1))) }()
			}
			var sp *obs.SpanRef
			if key.mode == campaign.ModeAVGI {
				sp = e.obs.Span("assess "+key.structure+" "+key.workload, "estimator",
					map[string]string{"structure": key.structure, "workload": key.workload, "window": fmt.Sprint(key.window)})
			}
			// Deferred (not straight-line) so a panicking campaign still closes
			// its span — otherwise one failure left the trace permanently open.
			defer sp.End()
			out, re := e.simulate(key, r, budget)
			resumed = re
			return out
		})
		if how != ran && e.sched.dedup != nil {
			e.sched.dedup.Inc()
		}
		if res != nil || how == ran || attempt >= 1 {
			return res, resumed, how
		}
		// nil from a coalesced wait means the leader panicked and was
		// evicted; retry once as (most likely) the new leader so the caller
		// surfaces the real failure instead of an opaque nil.
	}
}

// simulate executes one campaign through the journal and returns its
// results plus the number of fault results reused from the journal;
// resumed == len(res) means a full journal hit with zero simulation.
func (e *executor) simulate(key assessKey, r *Runner, budget *campaign.Budget) (res []CampaignResult, resumed int) {
	faults := r.FaultList(key.structure, key.faults, key.seed)
	spec := campaign.RunSpec{Faults: faults, Mode: key.mode, Window: key.window, Budget: budget}
	j := e.journal
	if j == nil {
		res, _ = r.RunCampaign(spec)
		return res, 0
	}
	jkey := journal.Key{Structure: key.structure, Workload: key.workload, Mode: key.mode.String(), Window: key.window}
	bind := journal.Binding{
		Machine:     r.Cfg.Name,
		Variant:     r.Cfg.Variant.String(),
		ProgramHash: journal.HashProgram(r.Prog),
		Seed:        key.seed,
		Faults:      len(faults),
	}
	if e.dist != nil && e.dist.Fleet > 0 {
		if res, resumed, ok := e.runDist(j, r, key, jkey, bind, faults, budget); ok {
			return res, resumed
		}
		// A failed distributed run (unwritable part shard, broken lease
		// transport) degrades to an unjournalled local run: the node stops
		// contributing to the fleet but still answers its caller, and opens
		// no writer on a canonical shard another node may be merging.
		res, _ = r.RunCampaign(spec)
		return res, 0
	}
	var prior map[int]CampaignResult
	if e.resume {
		var err error
		prior, err = j.Load(jkey, bind)
		if err != nil {
			// Mismatched or corrupt header: the shard belongs to a
			// different configuration or build. Refuse its records and
			// re-simulate (the Writer below truncates it).
			e.obs.Logf("journal: %s/%s %s: %v; re-simulating", key.structure, key.workload, key.mode, err)
			prior = nil
		}
		if len(prior) > 0 && e.sched.jResumed != nil {
			e.sched.jResumed.Add(uint64(len(prior)))
		}
		if len(prior) == len(faults) {
			// Full hit: the pair is already durable, no simulation at all.
			if e.sched.jHits != nil {
				e.sched.jHits.Inc()
			}
			out := make([]CampaignResult, len(faults))
			for i := range out {
				out[i] = prior[i]
			}
			return out, len(faults)
		}
	}
	spec.Prior = prior
	w, err := j.Writer(jkey, bind, e.resume && len(prior) > 0)
	if err != nil {
		e.obs.Logf("journal: %s/%s %s: %v; campaign will run unjournalled", key.structure, key.workload, key.mode, err)
		if e.sched.jErrors != nil {
			e.sched.jErrors.Inc()
		}
		res, _ = r.RunCampaign(spec)
		return res, len(prior)
	}
	// Surface the first I/O failure when it strikes, not at Close: a
	// long-running service would otherwise simulate for hours believing it
	// was journalling. The writer disables itself after the first error, so
	// the hook fires at most once per shard.
	w.OnError(func(err error) {
		e.obs.Logf("journal: %s/%s %s: write failed: %v; shard writes disabled, campaign continues unjournalled",
			key.structure, key.workload, key.mode, err)
		if e.sched.jErrors != nil {
			e.sched.jErrors.Inc()
		}
	})
	var appended func(uint64)
	if c := e.sched.jAppends; c != nil {
		appended = c.Add
	}
	spec.Sink = journal.NewChunkSink(w, prior, appended)
	res, _ = r.RunCampaign(spec)
	if err := w.Close(); err != nil {
		e.obs.Logf("journal: %s/%s %s: %v; shard may be incomplete", key.structure, key.workload, key.mode, err)
	}
	return res, len(prior)
}

// runDist executes one campaign as this node's share of a distributed
// fleet (see internal/dist and docs/DISTRIBUTED.md). ok=false means the
// distributed run failed and the caller should fall back to plain local
// execution; resumed counts the fault results that were already durable
// somewhere in the fleet's journal before this run.
func (e *executor) runDist(j *journal.Journal, r *Runner, key assessKey, jkey journal.Key,
	bind journal.Binding, faults []Fault, budget *campaign.Budget) (res []CampaignResult, resumed int, ok bool) {
	prior, err := j.LoadAll(jkey, bind)
	if err != nil {
		prior = nil
	}
	if len(prior) > 0 && e.sched.jResumed != nil {
		e.sched.jResumed.Add(uint64(len(prior)))
	}
	if len(prior) == len(faults) && e.sched.jHits != nil {
		e.sched.jHits.Inc()
	}
	res, err = dist.Run(dist.Config{
		Journal:      j,
		Owner:        e.dist.Owner,
		Fleet:        e.dist.Fleet,
		LocalWorkers: budget.Cap(),
		TTL:          e.dist.LeaseTTL,
		Sync:         journal.SyncEvery, // bounds a takeover's loss to one fault
		Obs:          e.obs,
	}, r, faults, jkey, bind, key.mode, key.window)
	if err != nil {
		e.obs.Logf("dist: %s/%s %s: %v; falling back to local execution", key.structure, key.workload, key.mode, err)
		if e.sched.jErrors != nil {
			e.sched.jErrors.Inc()
		}
		return nil, 0, false
	}
	// Per-node append counts live on avgi_dist_faults_total (this node may
	// have simulated only part of the missing work; the rest of the fleet
	// journalled the remainder into its own part shards).
	return res, len(prior), true
}

// Budget returns the study's global worker budget, for callers that run
// ad-hoc campaigns (e.g. the multi-bit ablation) and want them to share
// the study's capacity instead of oversubscribing it.
func (s *Study) Budget() *campaign.Budget { return s.budget }

// runCampaign runs one pair of the study through its executor: exactly
// one execution per key, concurrent callers coalesce onto it, and the
// results stay cached for the study's lifetime.
func (s *Study) runCampaign(structure, workload string, mode Mode, window uint64) []CampaignResult {
	key := assessKey{
		machine: s.Cfg.Machine.Name, structure: structure, workload: workload,
		mode: mode, window: window, faults: s.Cfg.FaultsPerStructure, seed: s.Cfg.SeedBase,
	}
	res, _, _ := s.run(key, s.runners[workload], s.budget)
	return res
}

// Prefetch dispatches the campaigns of every (structure, workload) pair in
// the given mode and window concurrently under the study's worker budget
// and blocks until all have completed. Pairs already cached (or in flight)
// coalesce for free, so prefetching is always safe to layer in front of a
// serial consumption loop. window is one stop window for every pair in
// ModeAVGI and 0 otherwise, as ParseMode requires; PrefetchAVGI derives a
// window per structure instead.
func (s *Study) Prefetch(structures, workloads []string, mode Mode, window uint64) {
	if _, err := ParseMode(mode.String(), window); err != nil {
		panic("avgi: Prefetch: " + err.Error())
	}
	var wg sync.WaitGroup
	for _, structure := range structures {
		for _, w := range workloads {
			wg.Add(1)
			go func(structure, w string) {
				defer wg.Done()
				s.runCampaign(structure, w, mode, window)
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
	s.Prefetch(s.Cfg.Structures, s.WorkloadNames(), mode, 0)
}
