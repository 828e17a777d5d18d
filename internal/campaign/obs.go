package campaign

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"avgi/internal/cpu"
	"avgi/internal/fault"
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

// structAgg accumulates one worker's per-structure telemetry locally so
// the hot loop touches no shared state beyond the progress reporter.
type structAgg struct {
	faults      uint64
	corruptions uint64
	quarantined uint64
	simCycles   uint64
	exhCycles   uint64
	stats       cpu.Stats

	// Cursor telemetry.
	cowPages   uint64
	advCycles  uint64
	deltaBytes uint64
	fullSyncs  uint64
	batched    uint64

	// Golden site timeline telemetry (EarlyExit runs, in every mode).
	cyclesSaved uint64
	resolved    [len(resolvedNames)]uint64 // by fate; [0] counts the faults that forked

	// Forensics attribution tallies (faults the sampler probed).
	causes [forensics.NumCauses]uint64
}

// runObs is the per-Run instrumentation state. A nil *runObs (observer
// absent) keeps campaign execution on the exact pre-telemetry code path.
type runObs struct {
	o    *obs.Observer
	r    *Runner
	mode string
	span *obs.SpanRef

	simHist  *obs.Histogram
	wallHist *obs.Histogram
	divHist  *obs.Histogram // registered only when forensics is on

	mu  sync.Mutex
	agg map[string]*structAgg

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

// newRunObs builds instrumentation for one Run call, announcing the
// campaign to the progress reporter and opening its span. prior marks
// fault-list indices resumed from a journal: they are not simulated, so
// they are excluded from the announced totals (the progress view counts
// work this run will actually do).
func (r *Runner) newRunObs(faults []fault.Fault, mode Mode, prior map[int]Result) *runObs {
	o := r.Obs
	if !o.Enabled() || len(faults) == 0 || len(prior) >= len(faults) {
		return nil
	}
	ro := &runObs{o: o, r: r, mode: mode.String(), agg: make(map[string]*structAgg)}
	// Fault lists are per-structure in practice, but stay correct for
	// mixed lists: announce each structure's share.
	perStructure := make(map[string]int)
	pending := 0
	for i, f := range faults {
		if _, ok := prior[i]; ok {
			continue
		}
		perStructure[f.Structure]++
		pending++
	}
	if p := o.Progress; p != nil {
		for s, n := range perStructure {
			p.StartCampaign(s, r.Prog.Name, ro.mode, n)
		}
	}
	if o.Metrics != nil {
		lb := map[string]string{"mode": ro.mode}
		ro.simHist = o.Metrics.Histogram("avgi_campaign_fault_sim_cycles",
			"post-injection cycles simulated per fault", simCycleBuckets, lb)
		ro.wallHist = o.Metrics.Histogram("avgi_campaign_fault_wall_seconds",
			"wall-clock seconds per fault (includes mother-machine advance)", wallSecBuckets, lb)
		if r.Forensics != nil {
			ro.divHist = o.Metrics.Histogram("avgi_divergence_latency_cycles",
				"injection-to-first-divergence latency of visible faults", divCycleBuckets, lb)
		}
	}
	attrs := map[string]string{
		"workload": r.Prog.Name,
		"mode":     ro.mode,
		"faults":   strconv.Itoa(pending),
	}
	// The span title and the "structure" attr must agree: for a
	// mixed-structure list the title names the structure count, not
	// whichever structure happens to sort first in the fault list.
	if len(perStructure) == 1 {
		for s := range perStructure {
			attrs["structure"] = s
		}
	} else {
		attrs["structure"] = fmt.Sprintf("%d structures", len(perStructure))
	}
	ro.span = o.Span("campaign "+ro.mode+" "+attrs["structure"]+" "+r.Prog.Name, "campaign", attrs)
	return ro
}

// skip retracts a claim-skipped chunk from the progress totals: the
// campaign announced its whole fresh fault list up front, but another
// process owns [lo, hi), so this run will never complete that share.
// Nil-safe.
func (ro *runObs) skip(faults []fault.Fault, lo, hi int, prior map[int]Result) {
	if ro == nil {
		return
	}
	p := ro.o.Progress
	if p == nil {
		return
	}
	per := make(map[string]int, 1)
	for i := lo; i < hi; i++ {
		if _, ok := prior[i]; ok {
			continue
		}
		per[faults[i].Structure]++
	}
	for s, n := range per {
		p.SkipFaults(s, ro.r.Prog.Name, ro.mode, n)
	}
}

// fault records one completed fault into the worker-local aggregate and
// the live telemetry (histograms + progress). Nil-safe.
func (ro *runObs) fault(local map[string]*structAgg, f fault.Fault, res *Result, wall time.Duration, delta cpu.Stats, fm forkMeta) {
	a := local[f.Structure]
	if a == nil {
		a = &structAgg{}
		local[f.Structure] = a
	}
	a.faults++
	if res.Quarantined {
		a.quarantined++
	} else if res.IMM != imm.Benign && res.IMM != imm.ESC {
		a.corruptions++
	}
	a.simCycles += res.SimCycles
	exh := ro.exhaustiveEstimate(f, res)
	a.exhCycles += exh
	addStats(&a.stats, delta)
	a.cowPages += fm.cowPages
	a.advCycles += fm.advCycles
	a.deltaBytes += fm.deltaBytes
	if fm.fullSync {
		a.fullSyncs++
	}
	if fm.batched {
		a.batched++
	}
	a.cyclesSaved += fm.cyclesSaved
	a.resolved[fm.resolved]++

	if fr := res.Forensics; fr != nil {
		a.causes[fr.Cause]++
		if ro.divHist != nil && fr.Divergence != nil {
			ro.divHist.Observe(float64(fr.Divergence.CycleDelta))
		}
	}

	if ro.simHist != nil {
		ro.simHist.Observe(float64(res.SimCycles))
		ro.wallHist.Observe(wall.Seconds())
	}
	if p := ro.o.Progress; p != nil {
		p.FaultDone(f.Structure, ro.r.Prog.Name, ro.mode, res.SimCycles, exh)
	}
}

// exhaustiveEstimate is the simulation cost the same fault would have had
// under end-to-end SFI: the remaining golden cycles after injection. For
// exhaustive runs the actual cost is the truth (speedup exactly 1); for
// the accelerated modes the estimate is floored at the cycles actually
// simulated so per-fault speedups never drop below 1.
func (ro *runObs) exhaustiveEstimate(f fault.Fault, res *Result) uint64 {
	if ro.mode == "exhaustive" {
		return res.SimCycles
	}
	var est uint64
	if ro.r.Golden.Cycles > f.Cycle {
		est = ro.r.Golden.Cycles - f.Cycle
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

// merge folds a worker's local aggregates into the run-wide ones.
func (ro *runObs) merge(local map[string]*structAgg) {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	for s, a := range local {
		dst := ro.agg[s]
		if dst == nil {
			dst = &structAgg{}
			ro.agg[s] = dst
		}
		dst.faults += a.faults
		dst.corruptions += a.corruptions
		dst.quarantined += a.quarantined
		dst.simCycles += a.simCycles
		dst.exhCycles += a.exhCycles
		addStats(&dst.stats, a.stats)
		dst.cowPages += a.cowPages
		dst.advCycles += a.advCycles
		dst.deltaBytes += a.deltaBytes
		dst.fullSyncs += a.fullSyncs
		dst.batched += a.batched
		dst.cyclesSaved += a.cyclesSaved
		for fate, n := range a.resolved {
			dst.resolved[fate] += n
		}
		for c, n := range a.causes {
			dst.causes[c] += n
		}
	}
}

// finish flushes the aggregates into the metrics registry and closes the
// campaign span. Nil-safe.
func (ro *runObs) finish() {
	if ro == nil {
		return
	}
	if reg := ro.o.Metrics; reg != nil {
		for s, a := range ro.agg {
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
		}
		if ro.poolGets > 0 {
			pl := map[string]string{"workload": ro.r.Prog.Name, "mode": ro.mode}
			reg.Counter("avgi_ckpt_pool_gets_total",
				"scratch machines checked out of the fork pool", pl).Add(ro.poolGets)
			reg.Counter("avgi_ckpt_pool_reuse_total",
				"fork-pool checkouts satisfied by a recycled machine", pl).Add(ro.poolReuses)
		}
	}
	ro.span.End()
}

// Configure sets the knobs a front end chooses for its runners — telemetry,
// forensics, the early exit — and publishes the golden gauges.
// Study, Service and avgisim all configure a fresh runner through this one
// call, so none can run without a knob the others set.
func (r *Runner) Configure(o *obs.Observer, fx *forensics.Explorer, earlyExit bool) {
	r.Obs, r.Forensics, r.EarlyExit = o, fx, earlyExit
	r.PublishGolden()
}

// PublishGolden registers the runner's golden-run characteristics as
// gauges with the observer's registry; a no-op without an observer.
func (r *Runner) PublishGolden() {
	if r.Obs == nil || r.Obs.Metrics == nil {
		return
	}
	reg := r.Obs.Metrics
	lb := map[string]string{"workload": r.Prog.Name, "machine": r.Cfg.Name}
	reg.Gauge("avgi_golden_cycles", "golden run length in cycles", lb).Set(float64(r.Golden.Cycles))
	reg.Gauge("avgi_golden_commits", "golden run committed instructions", lb).Set(float64(r.Golden.Commits))
	reg.Gauge("avgi_golden_output_bytes", "golden run output size in bytes", lb).Set(float64(len(r.Golden.Output)))
}
