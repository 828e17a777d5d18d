package campaign

import (
	"strconv"
	"sync"
	"time"

	"avgi/internal/cpu"
	"avgi/internal/forensics"
	"avgi/internal/imm"
	"avgi/internal/obs"
)

// nowFn is the wall clock used for per-fault timing (a variable so tests
// can freeze it).
var nowFn = time.Now

// Histogram bucket bounds. Sim-cycle buckets span the short AVGI windows
// (~1k cycles) up to full end-to-end runs; wall-time buckets span 10µs to
// 10s per fault.
var (
	simCycleBuckets = []float64{1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8}
	wallSecBuckets  = []float64{1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10}
	// Divergence-latency buckets span same-window manifestations (a few
	// cycles) out to end-of-run escapes.
	divCycleBuckets = []float64{1, 3, 10, 30, 100, 300, 1e3, 3e3, 1e4, 3e4, 1e5, 1e6}
)

// tally is a campaign's telemetry. A worker keeps its own copy of what only
// the run knows, per fault, so the hot loop touches no shared state beyond
// the progress reporter; finish folds the fields a Result carries from the
// Results the call settled.
type tally struct {
	// Folded from the Results in finish.
	faults      uint64
	corruptions uint64
	quarantined uint64
	simCycles   uint64
	exhCycles   uint64
	causes      [forensics.NumCauses]uint64 // forensics attribution tallies

	// Per fault, from the run.
	stats cpu.Stats

	// Cursor telemetry.
	cowPages   uint64
	advCycles  uint64
	deltaBytes uint64
	fullSyncs  uint64
	batched    uint64

	// Golden site timeline telemetry (EarlyExit runs, in every mode).
	cyclesSaved uint64
	resolved    [len(resolvedNames)]uint64 // by fate; [0] counts the faults that forked
}

// runObs is the per-Run instrumentation state of one campaign, which
// covers one structure. A nil *runObs (observer absent) keeps campaign
// execution on the exact pre-telemetry code path.
type runObs struct {
	o         *obs.Observer
	r         *Runner
	structure string
	mode      string
	span      *obs.SpanRef

	simHist  *obs.Histogram
	wallHist *obs.Histogram
	divHist  *obs.Histogram // registered only when forensics is on

	mu  sync.Mutex
	agg tally

	// Fork-pool accounting: one Get per worker, so contention is nil.
	poolGets   uint64
	poolReuses uint64
}

// poolGet records one pool checkout and whether it recycled a machine.
// Nil-safe.
func (ro *runObs) poolGet(reused bool) {
	if ro == nil {
		return
	}
	ro.mu.Lock()
	ro.poolGets++
	if reused {
		ro.poolReuses++
	}
	ro.mu.Unlock()
}

// newRunObs builds instrumentation for one Run call over pending faults of
// one structure, announcing the campaign to the progress reporter and
// opening its span. Faults resumed from a journal are not simulated, so
// they are not pending (the progress view counts work this run will
// actually do).
func (r *Runner) newRunObs(structure string, mode Mode, pending int) *runObs {
	o := r.Obs
	if !o.Enabled() || pending <= 0 {
		return nil
	}
	ro := &runObs{o: o, r: r, structure: structure, mode: mode.String()}
	o.Progress.StartCampaign(structure, r.Prog.Name, ro.mode, pending)
	lb := map[string]string{"mode": ro.mode}
	ro.simHist = o.Metrics.Histogram("avgi_campaign_fault_sim_cycles",
		"post-injection cycles simulated per fault", simCycleBuckets, lb)
	ro.wallHist = o.Metrics.Histogram("avgi_campaign_fault_wall_seconds",
		"wall-clock seconds per fault (includes mother-machine advance)", wallSecBuckets, lb)
	if r.Forensics != nil {
		ro.divHist = o.Metrics.Histogram("avgi_divergence_latency_cycles",
			"injection-to-first-divergence latency of visible faults", divCycleBuckets, lb)
	}
	attrs := map[string]string{
		"workload":  r.Prog.Name,
		"mode":      ro.mode,
		"faults":    strconv.Itoa(pending),
		"structure": structure,
	}
	ro.span = o.Span("campaign "+ro.mode+" "+structure+" "+r.Prog.Name, "campaign", attrs)
	return ro
}

// skip retracts n faults of a claim-skipped chunk from the progress totals:
// the campaign announced its whole fresh fault list up front, but another
// process owns that chunk, so this run will never complete that share.
// Nil-safe.
func (ro *runObs) skip(n int) {
	if ro == nil {
		return
	}
	ro.o.Progress.SkipFaults(ro.structure, ro.r.Prog.Name, ro.mode, n)
}

// fault records what only the run knows of one completed fault into the
// worker's tally, and the live telemetry (wall time, progress).
func (ro *runObs) fault(local *tally, res *Result, wall time.Duration, delta cpu.Stats, fm forkMeta) {
	addStats(&local.stats, delta)
	local.cowPages += fm.cowPages
	local.advCycles += fm.advCycles
	local.deltaBytes += fm.deltaBytes
	if fm.fullSync {
		local.fullSyncs++
	}
	if fm.batched {
		local.batched++
	}
	local.cyclesSaved += fm.cyclesSaved
	local.resolved[fm.resolved]++

	ro.wallHist.Observe(wall.Seconds())
	ro.o.Progress.FaultDone(ro.structure, ro.r.Prog.Name, ro.mode, res.SimCycles, ro.exhaustiveEstimate(res))
}

// exhaustiveEstimate is the simulation cost the same fault would have had
// under end-to-end SFI: the remaining golden cycles after injection. For
// exhaustive runs the actual cost is the truth (speedup exactly 1); for
// the accelerated modes the estimate is floored at the cycles actually
// simulated so per-fault speedups never drop below 1.
func (ro *runObs) exhaustiveEstimate(res *Result) uint64 {
	if ro.mode == "exhaustive" {
		return res.SimCycles
	}
	var est uint64
	if ro.r.Golden.Cycles > res.Fault.Cycle {
		est = ro.r.Golden.Cycles - res.Fault.Cycle
	}
	if est < res.SimCycles {
		est = res.SimCycles
	}
	return est
}

func addStats(dst *cpu.Stats, d cpu.Stats) {
	dst.Commits += d.Commits
	dst.Branches += d.Branches
	dst.Mispredicts += d.Mispredicts
	dst.Squashed += d.Squashed
	dst.Loads += d.Loads
	dst.Stores += d.Stores
	dst.FlipsArmed += d.FlipsArmed
	dst.FlipsMasked += d.FlipsMasked
}

// merge folds a worker's tally into the run-wide one.
func (ro *runObs) merge(local *tally) {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	dst := &ro.agg
	addStats(&dst.stats, local.stats)
	dst.cowPages += local.cowPages
	dst.advCycles += local.advCycles
	dst.deltaBytes += local.deltaBytes
	dst.fullSyncs += local.fullSyncs
	dst.batched += local.batched
	dst.cyclesSaved += local.cyclesSaved
	for fate, n := range local.resolved {
		dst.resolved[fate] += n
	}
}

// finish folds the Results the call settled (ran) into the run-wide tally
// and the histograms, flushes the tally into the metrics registry and
// closes the campaign span. Nil-safe.
func (ro *runObs) finish(results []Result, ran []bool) {
	if ro == nil {
		return
	}
	defer ro.span.End()
	reg := ro.o.Metrics
	if reg == nil {
		return
	}
	a := &ro.agg
	for i := range results {
		if !ran[i] {
			continue
		}
		res := &results[i]
		a.faults++
		if res.Quarantined {
			a.quarantined++
		} else if res.IMM != imm.Benign && res.IMM != imm.ESC {
			a.corruptions++
		}
		a.simCycles += res.SimCycles
		a.exhCycles += ro.exhaustiveEstimate(res)
		ro.simHist.Observe(float64(res.SimCycles))
		if fr := res.Forensics; fr != nil {
			a.causes[fr.Cause]++
			if fr.Divergence != nil {
				ro.divHist.Observe(float64(fr.Divergence.CycleDelta))
			}
		}
	}
	if a.faults == 0 {
		return // every chunk was claimed elsewhere; nothing forked either
	}
	s := ro.structure
	lb := map[string]string{"structure": s, "workload": ro.r.Prog.Name, "mode": ro.mode}
	reg.Counter("avgi_campaign_faults_total",
		"injected faults simulated", lb).Add(a.faults)
	reg.Counter("avgi_campaign_corruptions_total",
		"faults that became architecturally visible", lb).Add(a.corruptions)
	if a.quarantined > 0 {
		reg.Counter("avgi_faults_quarantined_total",
			"faults whose simulation panicked and was isolated", lb).Add(a.quarantined)
	}
	reg.Counter("avgi_campaign_sim_cycles_total",
		"post-injection cycles simulated", lb).Add(a.simCycles)
	reg.Counter("avgi_campaign_exhaustive_cycles_est_total",
		"estimated end-to-end SFI cost of the same faults", lb).Add(a.exhCycles)

	sl := map[string]string{"structure": s, "mode": ro.mode}
	reg.Counter("avgi_sim_commits_total", "instructions committed in faulty runs", sl).Add(a.stats.Commits)
	reg.Counter("avgi_sim_branches_total", "branches committed in faulty runs", sl).Add(a.stats.Branches)
	reg.Counter("avgi_sim_mispredicts_total", "branch mispredictions in faulty runs", sl).Add(a.stats.Mispredicts)
	reg.Counter("avgi_sim_squashed_total", "wrong-path instructions squashed in faulty runs", sl).Add(a.stats.Squashed)
	reg.Counter("avgi_sim_loads_total", "loads committed in faulty runs", sl).Add(a.stats.Loads)
	reg.Counter("avgi_sim_stores_total", "stores committed in faulty runs", sl).Add(a.stats.Stores)

	fl := map[string]string{"structure": s}
	reg.Counter("avgi_flips_armed_total",
		"bit flips that landed on live state", fl).Add(a.stats.FlipsArmed)
	reg.Counter("avgi_flips_masked_total",
		"bit flips masked at the injection site (free queue slots)", fl).Add(a.stats.FlipsMasked)

	// The cursor series exist for faults the cursor actually forked,
	// not ones quarantined before reaching it.
	if a.faults > a.quarantined {
		reg.Counter("avgi_ckpt_cow_pages_total",
			"RAM pages privatized copy-on-write by forked runs", lb).Add(a.cowPages)
		reg.Counter("avgi_cursor_advance_cycles_total",
			"golden cycles worker cursors advanced (replay amortized to once per chunk)", lb).Add(a.advCycles)
		reg.Counter("avgi_cursor_delta_bytes_total",
			"bytes moved by dirty-delta snapshot/restore pairs", lb).Add(a.deltaBytes)
		reg.Counter("avgi_cursor_full_syncs_total",
			"cursor faults that paid a full local snapshot capture", lb).Add(a.fullSyncs)
		if a.batched > 0 {
			reg.Counter("avgi_cursor_batched_faults_total",
				"cursor faults that reused the previous same-cycle snapshot outright", lb).Add(a.batched)
		}
	}
	if a.resolved[resolvedDead]+a.resolved[resolvedErased] > 0 {
		reg.Counter("avgi_window_cycles_saved_total",
			"faulty-window cycles the dead and erased faults' charges fall short of the full window", lb).Add(a.cyclesSaved)
	}
	for fate := resolvedDead; fate < len(resolvedNames); fate++ {
		if n := a.resolved[fate]; n > 0 {
			rl := map[string]string{"fate": resolvedNames[fate],
				"structure": s, "workload": ro.r.Prog.Name, "mode": ro.mode}
			reg.Counter("avgi_window_resolved_total",
				"faults the golden site timeline settled without a faulty cycle", rl).Add(n)
		}
	}
	for _, c := range forensics.Causes {
		if n := a.causes[c]; n > 0 {
			cl := map[string]string{"cause": c.String(),
				"structure": s, "workload": ro.r.Prog.Name, "mode": ro.mode}
			reg.Counter("avgi_mask_cause_total",
				"faults by attributed fate (forensics)", cl).Add(n)
		}
	}
	if ro.poolGets > 0 {
		pl := map[string]string{"workload": ro.r.Prog.Name, "mode": ro.mode}
		reg.Counter("avgi_ckpt_pool_gets_total",
			"scratch machines checked out of the fork pool", pl).Add(ro.poolGets)
		reg.Counter("avgi_ckpt_pool_reuse_total",
			"fork-pool checkouts satisfied by a recycled machine", pl).Add(ro.poolReuses)
	}
}

// Configure sets the knobs a front end chooses for its runners — telemetry,
// forensics, the early exit — and publishes the golden gauges.
// Study, Service and avgisim all configure a fresh runner through this one
// call, so none can run without a knob the others set.
func (r *Runner) Configure(o *obs.Observer, fx *forensics.Explorer, earlyExit bool) {
	r.Obs, r.Forensics, r.EarlyExit = o, fx, earlyExit
	r.PublishGolden()
}

// PublishGolden registers the runner's golden-run characteristics and its
// checkpoint store as gauges with the observer's registry.
func (r *Runner) PublishGolden() {
	reg := r.Obs.Registry()
	lb := map[string]string{"workload": r.Prog.Name, "machine": r.Cfg.Name}
	reg.Gauge("avgi_golden_cycles", "golden run length in cycles", lb).Set(float64(r.Golden.Cycles))
	reg.Gauge("avgi_golden_commits", "golden run committed instructions", lb).Set(float64(r.Golden.Commits))
	reg.Gauge("avgi_golden_output_bytes", "golden run output size in bytes", lb).Set(float64(len(r.Golden.Output)))
	reg.Gauge("avgi_ckpt_checkpoints", "interval checkpoints recorded along the golden run", lb).
		Set(float64(r.store.Count()))
	reg.Gauge("avgi_ckpt_snapshot_bytes", "total bytes captured across the checkpoint store", lb).
		Set(float64(r.store.Bytes()))
	reg.Gauge("avgi_ckpt_interval_cycles", "checkpoint spacing in cycles", lb).
		Set(float64(r.store.Interval()))
}
