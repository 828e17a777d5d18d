package avgi

import (
	"fmt"
	"sort"
	"sync"

	"avgi/internal/campaign"
	"avgi/internal/core"
	"avgi/internal/imm"
)

// StudyConfig parameterises a full multi-workload, multi-structure study —
// the unit of work behind every table and figure of the paper.
type StudyConfig struct {
	// Machine is the microarchitecture under study.
	Machine MachineConfig
	// Workloads defaults to all thirteen benchmarks.
	Workloads []Workload
	// Structures defaults to the twelve Table II structures.
	Structures []string
	// FaultsPerStructure is the SFI sample size per (structure,
	// workload) pair; the paper uses 2,000 (2.88% error at 99%
	// confidence), the harness default is 400.
	FaultsPerStructure int
	// Workers is the study-wide worker budget (0 = all CPUs): the total
	// campaign parallelism shared by every concurrent campaign of the
	// study, not a per-campaign count. See docs/SCHEDULING.md.
	Workers int
	// SeedBase makes the whole study reproducible.
	SeedBase int64
	// Obs, when non-nil, receives telemetry from the whole study: phase
	// spans (golden runs, campaigns, estimator training/assessment),
	// campaign metrics and live progress. See internal/obs and
	// docs/OBSERVABILITY.md.
	Obs *Observer

	// JournalDir, when non-empty, enables the durable result journal:
	// every campaign appends its completed per-fault Results as NDJSON
	// shards under this directory, fsynced per chunk, so a killed study
	// can be restarted without losing finished work. See
	// docs/ROBUSTNESS.md.
	JournalDir string

	// Resume makes the study consult existing journal shards before
	// dispatching a campaign: a fully journalled (structure, workload,
	// mode, window) pair is loaded instead of re-simulated, and a partial
	// shard resumes from its missing fault indices. Requires JournalDir.
	// Results are byte-identical to an uninterrupted run.
	Resume bool

	// Dist, when non-nil with Fleet > 0, runs every campaign of the study
	// as this node's share of a distributed fleet sharding chunks across
	// processes (requires JournalDir; the journal directory is the
	// coordination substrate). Results and
	// the merged canonical shards are byte-identical to a single-process
	// run. See docs/DISTRIBUTED.md.
	Dist *DistConfig

	// Forensics, when non-nil, turns on per-fault outcome attribution:
	// every fault is probed during its faulty run and its fate
	// (overwritten, squashed, evicted clean, logically masked, never
	// read, or visible — with first-divergence capture) is folded into
	// this explorer. See docs/OBSERVABILITY.md.
	Forensics *Explorer

	// EarlyExit settles, in every mode, each fault the golden site
	// timeline proves golden without simulating it (every site it covers
	// dead, erased unread or untouched in its window) and forks the others
	// at their sites' first use, so the training campaigns cost a fraction
	// of their host time. A settled AVGI fault is charged 1 cycle when
	// dead, up to the latest erase when erased, and its whole window when
	// untouched; an exhaustive one the run to the halt. Classifications
	// and summaries are identical either way, and exhaustive Results (and
	// so their HVF view) byte-identical; only AVGI per-fault SimCycles
	// shrink, so an AVGI campaign run without it journals under a
	// key of its own (docs/ROBUSTNESS.md). Shards journaled by a binary
	// from before the early exit covered TLB entries and free registers
	// keep full-window SimCycles for those faults (same classification).
	// See campaign.Runner.EarlyExit.
	EarlyExit bool
}

func (c *StudyConfig) fill() {
	if len(c.Workloads) == 0 {
		c.Workloads = Workloads()
	}
	if len(c.Structures) == 0 {
		c.Structures = Structures()
	}
	if c.FaultsPerStructure == 0 {
		c.FaultsPerStructure = 400
	}
	if c.SeedBase == 0 {
		c.SeedBase = 1
	}
}

// Study owns golden runs and schedules campaigns: a single-flight
// executor deduplicates concurrent requests for the same
// (structure, workload, mode, window) campaign and caches its results for
// the study's lifetime, and a global worker budget shared by all in-flight
// campaigns keeps the whole (structure × workload) grid saturated (see
// docs/SCHEDULING.md and Prefetch/RunAll in sched.go).
type Study struct {
	Cfg StudyConfig
	*executor

	runners map[string]*Runner
}

// NewStudy performs the golden run of every workload and records what its
// campaigns share (see campaign.NewRunner).
func NewStudy(cfg StudyConfig) (*Study, error) {
	cfg.fill()
	if cfg.FaultsPerStructure < 0 {
		return nil, fmt.Errorf("study: FaultsPerStructure %d is negative", cfg.FaultsPerStructure)
	}
	for _, s := range cfg.Structures {
		if err := ValidateStructure(s); err != nil {
			return nil, err
		}
	}
	if cfg.Resume && cfg.JournalDir == "" {
		return nil, fmt.Errorf("study: Resume requires JournalDir")
	}
	st := &Study{
		Cfg: cfg,
		executor: &executor{
			resume: cfg.Resume, dist: cfg.Dist, obs: cfg.Obs,
		},
		runners: make(map[string]*Runner),
	}
	if err := st.init(cfg.JournalDir, cfg.Workers, retainAll, "avgi_sched",
		map[string]string{"machine": cfg.Machine.Name}, cfg.Machine.Name); err != nil {
		return nil, fmt.Errorf("study: %w", err)
	}
	// The golden runs go concurrently, each holding a slot of the study's
	// worker budget; every one has returned before NewStudy does.
	allGolden := cfg.Obs.Span("golden runs", "golden",
		map[string]string{"machine": cfg.Machine.Name, "workloads": fmt.Sprint(len(cfg.Workloads))})
	runners := make([]*Runner, len(cfg.Workloads))
	errs := make([]error, len(cfg.Workloads))
	var wg sync.WaitGroup
	for i, w := range cfg.Workloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.budget.Acquire()
			defer st.budget.Release()
			sp := cfg.Obs.Span("golden "+w.Name, "golden", map[string]string{"workload": w.Name})
			defer sp.End()
			runners[i], errs[i] = campaign.NewRunner(cfg.Machine, w.Build(cfg.Machine.Variant))
		}()
	}
	wg.Wait()
	allGolden.End()
	for i, w := range cfg.Workloads {
		if errs[i] != nil {
			return nil, fmt.Errorf("study: %s: %w", w.Name, errs[i])
		}
		runners[i].Configure(cfg.Obs, cfg.Forensics, cfg.EarlyExit)
		st.runners[w.Name] = runners[i]
	}
	return st, nil
}

// Runner returns the campaign runner of one workload.
func (s *Study) Runner(workload string) *Runner { return s.runners[workload] }

// WorkloadNames returns the study's workloads in sorted order.
func (s *Study) WorkloadNames() []string {
	var ns []string
	for _, w := range s.Cfg.Workloads {
		ns = append(ns, w.Name)
	}
	sort.Strings(ns)
	return ns
}

// Campaign runs (or returns the cached results of) one campaign through
// the study scheduler — the public entry point for driving a single
// (structure, workload) pair, e.g. a distributed worker's share of a
// fleet-wide campaign (cmd/avgi campaign). Window is the AVGI ERT stop
// window in cycles and must be zero in ModeExhaustive; Campaign panics, as
// Prefetch does, on a window ParseMode refuses.
func (s *Study) Campaign(structure, workload string, mode Mode, window uint64) []CampaignResult {
	if _, _, err := ParseMode(mode.String(), window); err != nil {
		panic("avgi: Campaign: " + err.Error())
	}
	return s.runCampaign(structure, workload, mode, window)
}

// Exhaustive returns (running on first use, cached afterwards) the
// traditional end-to-end SFI results for one pair — the study's ground
// truth. Concurrent callers of the same pair coalesce onto a single
// execution (see runCampaign in sched.go).
func (s *Study) Exhaustive(structure, workload string) []CampaignResult {
	return s.runCampaign(structure, workload, campaign.ModeExhaustive, 0)
}

// HVF returns the stop-at-first-deviation results for one pair: the HVF
// view of its exhaustive campaign (campaign.HVFView), which it shares.
func (s *Study) HVF(structure, workload string) []CampaignResult {
	return campaign.HVFView(s.Exhaustive(structure, workload))
}

// AVGIRun executes the short AVGI-mode campaign for one pair under the
// estimator's ERT window, cached by window since several experiments
// revisit the same pair.
func (s *Study) AVGIRun(est *Estimator, structure, workload string) ([]CampaignResult, uint64) {
	window := est.WindowFor(structure, s.runners[workload].Golden.Cycles)
	return s.runCampaign(structure, workload, campaign.ModeAVGI, window), window
}

// TrainingData assembles the estimator's training input from the cached
// exhaustive campaigns over the given structures, excluding any workloads
// named in exclude (for leave-one-out evaluation).
func (s *Study) TrainingData(structures []string, exclude ...string) core.TrainingData {
	skip := make(map[string]bool, len(exclude))
	for _, w := range exclude {
		skip[w] = true
	}
	td := core.TrainingData{
		Results:     make(map[string]map[string][]campaign.Result),
		OutputSize:  make(map[string]int),
		TotalCycles: make(map[string]uint64),
		Exposure:    make(map[string]map[string]float64),
	}
	var wls []string
	for _, w := range s.Cfg.Workloads {
		if !skip[w.Name] {
			wls = append(wls, w.Name)
		}
	}
	// Overlap the training campaigns across the whole grid; the serial
	// loop below then only reads cached results.
	s.Prefetch(structures, wls, campaign.ModeExhaustive, 0)
	for _, structure := range structures {
		td.Results[structure] = make(map[string][]campaign.Result)
		td.Exposure[structure] = make(map[string]float64)
		for _, w := range s.Cfg.Workloads {
			if skip[w.Name] {
				continue
			}
			td.Results[structure][w.Name] = s.Exhaustive(structure, w.Name)
			td.Exposure[structure][w.Name] = s.runners[w.Name].OutputExposure[structure]
		}
	}
	for _, w := range s.Cfg.Workloads {
		if skip[w.Name] {
			continue
		}
		r := s.runners[w.Name]
		td.OutputSize[w.Name] = len(r.Golden.Output)
		td.TotalCycles[w.Name] = r.Golden.Cycles
	}
	return td
}

// TrainEstimator trains the full methodology on the cached exhaustive
// campaigns of the study's structures, excluding the named workloads.
// (The span covers only the fitting step; the exhaustive training
// campaigns carry their own spans when run on first use.)
func (s *Study) TrainEstimator(exclude ...string) *Estimator {
	td := s.TrainingData(s.Cfg.Structures, exclude...)
	sp := s.Cfg.Obs.Span("train estimator", "estimator",
		map[string]string{"exclude": fmt.Sprint(exclude)})
	defer sp.End()
	return core.Train(td)
}

// GroundTruthAVF returns the exhaustive-SFI AVF for one pair.
func (s *Study) GroundTruthAVF(structure, workload string) AVF {
	return core.AVFFromEffects(campaign.Summarize(s.Exhaustive(structure, workload)))
}

// Summaries returns per-workload exhaustive summaries for a structure,
// overlapping the structure's campaigns across workloads.
func (s *Study) Summaries(structure string) map[string]CampaignSummary {
	s.Prefetch([]string{structure}, s.WorkloadNames(), campaign.ModeExhaustive, 0)
	out := make(map[string]CampaignSummary)
	for _, w := range s.Cfg.Workloads {
		out[w.Name] = campaign.Summarize(s.Exhaustive(structure, w.Name))
	}
	return out
}

// IMMDistribution returns the Fig. 3 normalised IMM fractions per workload
// for one structure (over corruptions).
func (s *Study) IMMDistribution(structure string) map[string]map[IMM]float64 {
	out := make(map[string]map[IMM]float64)
	for w, sum := range s.Summaries(structure) {
		out[w] = sum.IMMFractions()
	}
	return out
}

// EffectPerIMM returns, per workload and IMM class, the conditional final
// effect distribution from exhaustive runs (Fig. 4).
func (s *Study) EffectPerIMM(structure string) map[string]map[IMM]core.EffectProbs {
	s.Prefetch([]string{structure}, s.WorkloadNames(), campaign.ModeExhaustive, 0)
	out := make(map[string]map[IMM]core.EffectProbs)
	for _, w := range s.Cfg.Workloads {
		results := s.Exhaustive(structure, w.Name)
		per := make(map[IMM]core.EffectProbs)
		for _, class := range imm.Classes {
			var counts [3]float64
			total := 0.0
			for _, r := range results {
				if r.IMM == class && r.HasEffect {
					counts[r.Effect]++
					total++
				}
			}
			if total > 0 {
				per[class] = core.EffectProbs{counts[0] / total, counts[1] / total, counts[2] / total}
			}
		}
		out[w.Name] = per
	}
	return out
}
