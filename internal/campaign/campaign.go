// Package campaign executes statistical fault-injection campaigns over the
// machine model: the golden (fault-free) reference run, and per-fault runs
// in the three observation modes the paper compares —
//
//   - ModeExhaustive: the traditional accelerated SFI flow; every run
//     continues to the end of the program so Masked/SDC/Crash can be
//     decided from the output (Section IV.B baseline).
//   - ModeHVF: stop at the first commit-trace deviation (the HVF
//     measurement of Section III used to extract IMM distributions —
//     the paper's Insights 1&2).
//   - ModeAVGI: stop at the first deviation or at the structure's
//     effective-residency-time window, whichever is first (Insight 3).
//
// All modes share one fault path, and there is one way a faulty run is
// forked off the golden prefix: a campaign exploits the cycle-sorted fault
// list and contiguous worker chunks — each worker's pooled machine is a
// golden cursor advancing monotonically once through its chunk's cycle span,
// re-arming a worker-local snapshot at each injection cycle via dirty-delta
// copies and rewinding from it after the faulty run, so golden replay is
// amortized to once per chunk and per-fault copy cost scales with the fault
// window's write footprint, not the machine size (runCursor, ending in
// injectAndObserve; the shared ckpt.Store of interval checkpoints serves
// only the cursor's initial seek). The cursor is proven byte-identical to a
// serial clone-per-fault reference kept in the package's tests (see
// docs/CHECKPOINTING.md).
//
// Under Runner.EarlyExit no mode simulates what is provably golden: the
// golden site timeline settles a fault none of whose sites is read — each
// dead, erased unread or untouched in the window — by lookup (resolve), and
// the others fork one cycle before their sites' first event. A resolved
// fault is charged 1 cycle when no site was live, up to the latest erase
// when every live one was erased, and the whole window when one stays
// untouched; outside ModeAVGI the run to the halt, so an exhaustive or HVF
// Result, SimCycles included, is the full run's. A fault on one queue slot
// whose first event is its commit is read only by the shadow integrity
// check there, and resolve settles it as the machine-check crash that
// commit is. Either way one classifier labels the run (classify): the
// forked one, or the one resolve states for a fault it settles.
package campaign

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"avgi/internal/asm"
	"avgi/internal/ckpt"
	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/forensics"
	"avgi/internal/imm"
	"avgi/internal/mem"
	"avgi/internal/obs"
	"avgi/internal/trace"
)

// Mode selects how far a faulty run is simulated.
type Mode uint8

const (
	// ModeExhaustive runs to the end of the program (traditional SFI).
	ModeExhaustive Mode = iota
	// ModeHVF stops at the first commit-trace deviation.
	ModeHVF
	// ModeAVGI stops at the first deviation or the ERT window.
	ModeAVGI
)

func (m Mode) String() string {
	switch m {
	case ModeExhaustive:
		return "exhaustive"
	case ModeHVF:
		return "hvf"
	case ModeAVGI:
		return "avgi"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Runaway guard for faulty runs: a corrupted machine can livelock (e.g. a
// clobbered loop counter that never reaches its bound), so every faulty
// run carries an absolute cycle budget of
//
//	RunawayFactor × golden cycles + RunawayGraceCycles.
//
// The factor covers slowdowns proportional to program length (extra
// misses, mispredicted paths); the additive grace covers short programs
// whose doubled golden length would still be tiny. Runs that hit the
// budget are classified as crashes (StatusCycleLimit), matching the
// hang/timeout detector of real injection rigs.
const (
	// RunawayFactor multiplies the golden cycle count.
	RunawayFactor = 2
	// RunawayGraceCycles is the additive slack on top of the factor.
	RunawayGraceCycles = 100_000
)

// Quarantine guard: a panicking injection (a simulator invariant trip on a
// corrupted machine, a malformed fault) is isolated to its own Result
// instead of killing the process — at the paper's scale (~726k injections
// over days of wall clock) partial failure is the normal case and one
// poisoned fault must not take down every in-flight campaign. A campaign
// whose freshly simulated faults exceed QuarantineLimit quarantined results
// fails loudly with an aggregated error: at that rate the problem is
// systemic (bad config, broken build), not a stray corrupted state.
const QuarantineLimit = 0.25

// Golden holds the fault-free reference run.
type Golden struct {
	Trace   []trace.Record
	Cycles  uint64
	Commits uint64
	Output  []byte
}

// Result is the outcome of one injected fault.
type Result struct {
	Fault fault.Fault

	// IMM is the manifestation class (Benign if the fault never became
	// architecturally visible within the observed window).
	IMM imm.IMM

	// Effect is the end-to-end fault effect; valid only when HasEffect
	// (ModeExhaustive runs).
	Effect    imm.Effect
	HasEffect bool

	// Manifested reports a commit-trace deviation; ManifestLatency is
	// the distance in cycles from injection to that deviation.
	Manifested      bool
	ManifestLatency uint64

	// SimCycles is the window the fault is charged: the post-injection
	// cycles from the injection cycle, whether or not anyone ran them. A
	// fault the run simulates is charged to where its run ended, the whole
	// stretch from injection even when it forked at its sites' first use. A
	// ModeAVGI fault the golden site timeline resolves is charged 1 cycle
	// when no site it covers was live, up to the latest erase when every
	// live site was erased unread, and the whole window when one stays
	// untouched; an exhaustive or HVF fault it resolves the run to the
	// golden halt, the traditional cost. A queue fault it resolves as a
	// machine check is charged, in every mode, up to the commit where the
	// run it stands for crashes. Speedups derived from it
	// (study.sim_speedup_x) compare methodologies, not host time, and do not
	// move with the timeline.
	SimCycles uint64

	// Crash records how a crashed run died.
	Crash cpu.CrashKind

	// Runaway reports that the run died by exhausting the runaway cycle
	// budget (livelock) rather than a real machine crash event. The IMM
	// and final-effect classification treat both identically (a hang is a
	// crash to the injection rig), but summaries and the journal keep the
	// distinction.
	Runaway bool

	// Quarantined reports that simulating this fault panicked; the panic
	// was recovered, the worker's machine state discarded, and Err holds
	// the panic message. A quarantined Result carries no classification
	// and is excluded from every Summary tally except Quarantined.
	Quarantined bool

	// Err is the recovered panic message of a quarantined fault.
	Err string

	// Forensics is the per-fault fate attribution captured when the
	// runner's forensics mode is on (see internal/forensics); nil
	// otherwise. Persisted with the journal record as a
	// backward-compatible extension — old shards simply lack it.
	Forensics *forensics.Record `json:",omitempty"`
}

// Runner executes campaigns for one (machine config, workload) pair.
type Runner struct {
	Cfg  cpu.Config
	Prog *asm.Program

	// Golden is the fault-free reference.
	Golden Golden

	// BitCounts maps structure name to its injectable bit count.
	BitCounts map[string]uint64

	// OutputExposure is the golden run's dirty-output occupancy fraction
	// per ESC-capable cache array — the runtime profile the ESC
	// predictor consumes (Section IV.D's "fast runtime profiling").
	OutputExposure map[string]float64

	// Obs, when non-nil, receives telemetry from every campaign run: a
	// span per campaign, per-fault sim-cycle and wall-time histograms,
	// machine-stat counters, and live progress events. Nil (the default)
	// keeps the hot path entirely uninstrumented.
	Obs *obs.Observer

	// Forensics, when non-nil, enables per-fault fate attribution: every
	// fault gets an observation probe for its faulty run, its Result
	// carries a forensics.Record, and every campaign's breakdown is folded
	// into this explorer. Nil (the default) leaves the machine tick loop on
	// the exact unprobed code.
	Forensics *forensics.Explorer

	// EarlyExit means: do not simulate what is provably golden, in every
	// mode. Every fault is first looked up in the golden site timeline
	// (resolve). When none of the sites it covers is read in its window —
	// each dead, erased by golden-valued writes before anything read it, or
	// untouched — the Result is written without a faulty cycle, charged 1
	// cycle for a dead fault, up to the latest erase for an erased one, the
	// whole window for an untouched one, and outside ModeAVGI the run to
	// the halt. So is the machine-check crash of a fault on one queue slot
	// that commits inside the window, charged to that commit. Otherwise the
	// fork waits for the sites' first event. Results
	// are identical to the full run's; in ModeAVGI only SimCycles shrinks,
	// and in the other modes not even that (TestEarlyExitDifferential
	// compares the outcomes, TestEarlyExitStateGolden the machines where a
	// charge ends, TestTimelineDifferential and
	// TestTimelineDifferentialModes every Result field against the full
	// runs). A multi-bit fault on a cache or TLB forks at its own cycle and
	// runs its full window, and so does every fault of a golden run too
	// long to have a timeline (2^22 cycles or more): in ModeAVGI those are
	// charged their full windows. Off by default so recorded AVGI
	// SimCycles stay comparable; avgi turns it on unless -early-exit=false,
	// and avgid always does.
	EarlyExit bool

	// store holds the interval checkpoints a fault's fork seeks from, and
	// with them the golden site timeline; pool recycles the workers'
	// machines. NewRunner records both, and nothing writes them after.
	store *ckpt.Store
	pool  *ckpt.Pool
}

// RunawayLimit returns the absolute cycle budget for faulty runs (see
// RunawayFactor).
func (r *Runner) RunawayLimit() uint64 {
	return r.Golden.Cycles*RunawayFactor + RunawayGraceCycles
}

// horizon is where a faulty run injected at t would end if nothing
// deviated: the ERT horizon in ModeAVGI, capped at the golden halt (a
// machine equal to golden replays the golden run, so it could never run
// further), and the halt itself in the other modes.
func (r *Runner) horizon(mode Mode, t, ert uint64) uint64 {
	if mode == ModeAVGI {
		return min(t+ert, r.Golden.Cycles)
	}
	return r.Golden.Cycles
}

// Timeline returns the golden site timeline; nil for a golden run too
// long to index.
func (r *Runner) Timeline() *cpu.Timeline { return r.store.Timeline() }

// NewRunner performs the golden run and records everything a campaign
// shares: the commit trace, the output exposure, the checkpoint store with
// the golden site timeline, and the fork pool. The Runner it returns is
// complete; campaigns only read it.
func NewRunner(cfg cpu.Config, p *asm.Program) (*Runner, error) {
	m := cpu.New(cfg, p)
	var golden trace.Capture
	m.SetSink(&golden)
	res, samples := runSampled(m, p)
	if res.Status != cpu.StatusHalted {
		return nil, fmt.Errorf("campaign: golden run of %s ended %v (crash %v) after %d cycles",
			p.Name, res.Status, res.Crash, res.Cycles)
	}
	bits := make(map[string]uint64)
	for _, name := range cpu.StructureNames {
		bits[name] = m.Target(name).BitCount()
	}
	r := &Runner{
		Cfg:  cfg,
		Prog: p,
		Golden: Golden{
			Trace:   golden.Records(),
			Cycles:  res.Cycles,
			Commits: res.Commits,
			Output:  res.Output,
		},
		BitCounts: bits,
	}
	r.OutputExposure = r.computeExposure(m, samples)
	// Recorded last: the golden machine and its trace blocks are garbage by
	// then, so the two passes never hold their state at once.
	r.store = ckpt.Record(cfg, p, res.Cycles, 0)
	r.pool = ckpt.NewPool(cfg, p)
	return r, nil
}

// exposureInterval is the spacing in cycles of the golden run's
// dirty-output samples.
const exposureInterval = 64

// outputSamples is the golden run's dirty-output time series of each
// ESC-capable cache: sample i counts the cache's dirty lines holding output
// data (OutLenAddr up) as they stand before cycle (i+1)·exposureInterval
// ticks.
type outputSamples map[*mem.Cache][]uint32

// runSampled runs m, a fresh machine, to its end in exposureInterval-cycle
// slices and samples its L1D and L2 between them.
func runSampled(m *cpu.Machine, p *asm.Program) (cpu.Result, outputSamples) {
	s := make(outputSamples)
	for {
		res := m.Run(cpu.RunOptions{StopAtCycle: (m.Cycle() + 1) | (exposureInterval - 1), MaxCycles: 50_000_000})
		if res.Status != cpu.StatusRunning {
			return res, s
		}
		for _, c := range [...]*mem.Cache{m.Mem.L1D, m.Mem.L2} {
			s[c] = append(s[c], uint32(c.DirtyLinesInRange(p.OutLenAddr, p.RAMSize)))
		}
	}
}

// computeExposure folds the golden run's dirty-output time series into one
// exposure fraction per ESC-capable cache array. Each sample's dirty-line
// occupancy is weighted by the fraction of output locations already in
// their final state at that cycle — corruption of output data that will
// still be overwritten cannot escape, which matters for workloads (like
// qsort) that compute in place inside the output region.
func (r *Runner) computeExposure(m *cpu.Machine, s outputSamples) map[string]float64 {
	// Final-store cycle per output location, from the golden trace.
	finals := make(map[uint64]uint64)
	for _, rec := range r.Golden.Trace {
		if rec.IsStore && rec.Addr >= r.Prog.OutLenAddr {
			finals[rec.Addr] = rec.Cycle
		}
	}
	finalCycles := make([]uint64, 0, len(finals))
	for _, c := range finals {
		finalCycles = append(finalCycles, c)
	}
	sort.Slice(finalCycles, func(i, j int) bool { return finalCycles[i] < finalCycles[j] })

	// w(t) = fraction of output locations final by cycle t.
	w := func(t uint64) float64 {
		if len(finalCycles) == 0 {
			return 0
		}
		idx := sort.Search(len(finalCycles), func(i int) bool { return finalCycles[i] > t })
		return float64(idx) / float64(len(finalCycles))
	}

	exposure := make(map[string]float64)
	for _, name := range cpu.StructureNames {
		if s, _ := cpu.StructureNamed(name); !s.ESC {
			continue
		}
		c := m.CacheOf(name)
		var sum float64
		for i, n := range s[c] {
			sum += float64(n) * w(uint64(i+1)*exposureInterval)
		}
		if len(s[c]) > 0 {
			sum = sum / float64(len(s[c])) / float64(c.Lines())
		}
		exposure[name] = sum
	}
	return exposure
}

// mustStructure panics with a descriptive message for structure names the
// machine cannot inject into. Before this check, a misspelt name silently
// produced a zero bit count and therefore an empty fault list.
func (r *Runner) mustStructure(structure string) {
	if err := cpu.ValidateStructure(structure); err != nil {
		panic("campaign: " + err.Error())
	}
}

// FaultList generates the statistical fault list for one structure using
// the runner's golden cycle count as the temporal population. It panics on
// unknown structure names.
func (r *Runner) FaultList(structure string, n int, seedBase int64) []fault.Fault {
	r.mustStructure(structure)
	faults := fault.List(structure, n, r.BitCounts[structure], r.Golden.Cycles,
		fault.Seed(structure, r.Prog.Name, seedBase))
	r.assertTemporal(faults)
	return faults
}

// MultiBitFaultList generates a statistical list of spatial multi-bit
// faults (width adjacent bits) for one structure. It panics on unknown
// structure names.
func (r *Runner) MultiBitFaultList(structure string, n, width int, seedBase int64) []fault.Fault {
	r.mustStructure(structure)
	faults := fault.ListMultiBit(structure, n, width, r.BitCounts[structure], r.Golden.Cycles,
		fault.Seed(structure, r.Prog.Name, seedBase))
	r.assertTemporal(faults)
	return faults
}

// assertTemporal enforces the temporal-sampling invariant: every injection
// cycle lies in [1, golden cycles]. A cycle outside the population would
// silently inject into a halted (or never-reached) machine state and bias
// the campaign, so it is a programming error, not a recoverable condition.
func (r *Runner) assertTemporal(faults []fault.Fault) {
	for _, f := range faults {
		if f.Cycle < 1 || f.Cycle > r.Golden.Cycles {
			panic(fmt.Sprintf("campaign: fault %d cycle %d outside golden population [1, %d]",
				f.ID, f.Cycle, r.Golden.Cycles))
		}
	}
}

// Run executes a fault list in the given mode. ert is the
// effective-residency-time stop window in cycles (ModeAVGI only; ignored
// otherwise). workers <= 0 uses all CPUs. Results are returned in fault
// list order and are deterministic regardless of worker count.
func (r *Runner) Run(faults []fault.Fault, mode Mode, ert uint64, workers int) []Result {
	results, _ := r.RunCampaign(RunSpec{Faults: faults, Mode: mode, Window: ert, Budget: NewBudget(workers)})
	return results
}

// ChunkSink receives freshly completed result chunks while a campaign is
// still running — the hook the durable journal appends (and fsyncs)
// through, so a crash mid-campaign loses at most the in-flight chunks.
// ChunkDone is called concurrently from worker goroutines with the chunk's
// fault-list range [lo, hi) and ran, which marks the indices this call
// settled (the rest of the chunk came from RunSpec.Prior); implementations
// must synchronize internally and must only read ran[lo:hi] and
// results[lo:hi].
type ChunkSink interface {
	ChunkDone(lo, hi int, ran []bool, results []Result)
}

// ChunkClaimer arbitrates chunk ownership across the processes of one
// distributed campaign (see internal/dist). Claim is called serially from
// the dispatch loop for the chunk covering fault-list indices [lo, hi); ok
// false means another process owns — or has already completed — the chunk,
// and the caller skips it without simulating. On success, release is
// called exactly once, from the worker goroutine, after the chunk's fresh
// results have passed through the ChunkSink; done=false signals the
// results did not become durable (a failing journal disk) so the chunk
// must stay claimable by other processes.
type ChunkClaimer interface {
	Claim(lo, hi int) (release func(done bool), ok bool)
}

// ChunkSize is the campaign's chunk geometry: n faults planned across w
// workers yields contiguous chunks of this size. Every process of a
// distributed campaign derives the geometry independently from the shared
// (fault-list length, fleet worker count) pair — it depends on nothing
// local, which is what lets lease names like "chunk-lo-hi" mean the same
// fault indices on every node.
func ChunkSize(n, w int) int {
	if n == 0 {
		return 0
	}
	if w <= 0 {
		w = 1
	}
	if w > n {
		w = n
	}
	return (n + w - 1) / w
}

// RunSpec describes one campaign execution for RunCampaign.
type RunSpec struct {
	Faults []fault.Fault
	Mode   Mode
	// Window is the effective-residency-time stop window in cycles
	// (ModeAVGI only; ignored otherwise).
	Window uint64
	// Budget bounds this process's worker concurrency; nil runs with a
	// private all-CPUs budget. Concurrent campaigns handed the same budget
	// interleave at chunk granularity: a campaign whose tail is draining
	// releases slots that the next campaign's dispatch loop (blocked in
	// Acquire) claims immediately. Each chunk is a fixed contiguous slice
	// of the (deterministic) fault list, so sharing a budget changes only
	// scheduling, never outcomes.
	Budget *Budget
	// Prior maps fault-list indices to already-known Results (loaded from
	// a journal); they are copied into the output instead of re-simulated.
	// Chunk geometry is identical to a from-scratch run, so a resumed
	// campaign's results are byte-identical to an uninterrupted one.
	Prior map[int]Result
	// Sink, when non-nil, is notified after each chunk of fresh simulation.
	Sink ChunkSink
	// PlanWorkers fixes the chunk geometry independently of the local
	// budget: a distributed campaign passes the fleet-wide worker count so
	// every process derives identical chunk boundaries while its local
	// budget only bounds concurrency. 0 derives the geometry from the
	// budget capacity (the single-process behaviour).
	PlanWorkers int
	// Claimer arbitrates chunk ownership across processes; nil claims
	// every chunk locally.
	Claimer ChunkClaimer
}

// RunCampaign executes a campaign described by spec — the full-generality
// entry point underlying Run, and the one the study scheduler and the
// distributed layer drive directly. The second return value counts the
// faults skipped because spec.Claimer refused their chunks (another
// process owns them); their Result slots hold whatever spec.Prior knew, or
// the zero Result. A distributed driver treats skipped > 0 as "not my
// work, not finished either" and reloads the journal for the rest.
//
// A campaign covers one structure: its telemetry and progress are labelled
// by it, so a list mixing structures is a programming error and panics.
//
// Each fault is simulated under a panic guard: a panicking injection
// yields a quarantined Result (Quarantined, Err) instead of killing the
// process, and the panicking worker discards its possibly corrupted
// machine state — the pooled cursor machine is dropped rather than
// recycled. If more than QuarantineLimit of the freshly simulated faults
// quarantine, the campaign itself panics with an aggregated error.
func (r *Runner) RunCampaign(spec RunSpec) (results []Result, skippedFaults int) {
	faults, mode, ert, prior, sink := spec.Faults, spec.Mode, spec.Window, spec.Prior, spec.Sink
	results = make([]Result, len(faults))
	if len(faults) == 0 {
		return results, 0
	}
	for _, f := range faults {
		if f.Structure != faults[0].Structure {
			panic(fmt.Sprintf("campaign: fault list mixes %s and %s", faults[0].Structure, f.Structure))
		}
	}
	budget := spec.Budget
	if budget == nil {
		budget = NewBudget(0)
	}
	workers := budget.Cap()
	if workers > len(faults) {
		workers = len(faults)
	}
	plan := spec.PlanWorkers
	if plan <= 0 {
		plan = workers
	}
	ro := r.newRunObs(faults[0].Structure, mode, len(faults)-len(prior))
	var tl *cpu.Timeline
	if r.EarlyExit {
		tl = r.Timeline()
	}
	// Contiguous chunks keep each worker's cursor advancing monotonically
	// through its cycle-sorted slice. Chunk geometry depends only on the
	// list length and the planned worker count — never on timing — which is
	// what keeps results byte-identical under any interleaving, across
	// resumed runs, and across the processes of a distributed campaign.
	chunk := ChunkSize(len(faults), plan)
	// ran marks the faults this call settles; the workers, the sink, the
	// quarantine check and the telemetry fold read it and nothing else.
	ran := make([]bool, len(faults))
	var wg sync.WaitGroup
	for lo := 0; lo < len(faults); lo += chunk {
		hi := min(lo+chunk, len(faults))
		fresh := 0
		for i := lo; i < hi; i++ {
			if pr, ok := prior[i]; ok {
				results[i] = pr
			} else {
				ran[i] = true
				fresh++
			}
		}
		// A chunk fully covered by prior results needs no worker, no
		// budget slot, no claim and no sink notification (its results are
		// already durable).
		if fresh == 0 {
			continue
		}
		// Budget before claim: holding a lease while queued for a local
		// worker slot would starve the processes that have slots free.
		budget.Acquire()
		var release func(bool)
		if spec.Claimer != nil {
			rel, ok := spec.Claimer.Claim(lo, hi)
			if !ok {
				budget.Release()
				clear(ran[lo:hi])
				skippedFaults += fresh
				ro.skip(fresh)
				continue
			}
			release = rel
		}
		wg.Add(1)
		go func(lo, hi int, release func(bool)) {
			defer wg.Done()
			defer budget.Release()
			w := &worker{r: r, mode: mode, ert: ert, ro: ro, tl: tl}
			defer w.close()
			w.runChunk(faults, lo, hi, ran, results)
			if sink != nil {
				sink.ChunkDone(lo, hi, ran, results)
			}
			if release != nil {
				release(true)
			}
		}(lo, hi, release)
	}
	wg.Wait()
	ro.finish(results, ran)
	checkQuarantine(results, ran)
	if spec.Claimer == nil {
		r.RecordForensics(faults, mode, results)
	}
	return results, skippedFaults
}

// RecordForensics folds a whole campaign — fresh and journal-resumed
// results alike — into the runner's forensics explorer, serially so the
// breakdown (and its retained samples) is deterministic under any worker
// layout; quarantined results carry no attribution and are left out.
// RunCampaign records what it returns unless a claimer split the campaign
// across processes; a distributed driver, which calls RunCampaign once per
// claim round, records the merged results once instead. A no-op without an
// explorer.
func (r *Runner) RecordForensics(faults []fault.Fault, mode Mode, results []Result) {
	if r.Forensics == nil {
		return
	}
	ms := mode.String()
	for i := range results {
		if !results[i].Quarantined {
			r.Forensics.Record(faults[i].Structure, r.Prog.Name, ms, faults[i], results[i].Forensics)
		}
	}
}

// checkQuarantine fails the campaign loudly when the quarantined fraction
// of freshly simulated faults exceeds QuarantineLimit: isolated panics are
// survivable noise, but a systemic rate means the campaign's numbers would
// be statistically meaningless.
func checkQuarantine(results []Result, ran []bool) {
	var fresh, q int
	var sample []string
	for i, res := range results {
		if !ran[i] {
			continue
		}
		fresh++
		if res.Quarantined {
			q++
			if len(sample) < 3 {
				sample = append(sample, fmt.Sprintf("%s: %s", res.Fault, res.Err))
			}
		}
	}
	if fresh == 0 || float64(q)/float64(fresh) <= QuarantineLimit {
		return
	}
	panic(fmt.Sprintf("campaign: %d of %d simulated faults quarantined (limit %.0f%%); first errors: %s",
		q, fresh, QuarantineLimit*100, strings.Join(sample, "; ")))
}

// The fates the golden site timeline settles without a faulty cycle
// (forkMeta.resolved; resolvedNames are the fate labels of
// avgi_window_resolved_total): no site the flip covers held anything
// reachable, every live one was erased before anything read it, nothing
// was read and a live one met no event while the window was open, or the
// one queue slot it covers retired inside the window, where the shadow
// integrity check crashes the run.
const (
	resolvedDead = 1 + iota
	resolvedErased
	resolvedUntouched
	resolvedMachineCheck
)

var resolvedNames = [...]string{resolvedDead: "dead", resolvedErased: "erased", resolvedUntouched: "untouched",
	resolvedMachineCheck: "machine-check"}

// forkMeta is the per-fault fork telemetry of the cursor flow: advCycles
// is the golden distance the cursor advanced for this fault (amortized
// replay), deltaBytes the volume moved by the dirty-delta snapshot/restore
// pair, cowPages the RAM pages the faulty run privatized, fullSync marks
// faults that paid a full capture (first fault after a cursor (re)build),
// and batched marks faults that reused the previous fault's snapshot
// outright (same injection cycle, no cursor advance, so the restored
// machine already matches it). A cursor that jumped ahead onto a
// checkpoint pays a full capture too and is a fullSync. resolved is non-zero
// for a fault the timeline settled: it never forked, and of the rest only
// cyclesSaved is set, to what a dead or erased fault's charge falls short of
// the full window (Runner.horizon).
type forkMeta struct {
	cowPages    uint64
	advCycles   uint64
	deltaBytes  uint64
	fullSync    bool
	batched     bool
	resolved    uint8
	cyclesSaved uint64
}

// worker is one dispatch goroutine's simulation state: a pooled machine
// playing the golden cursor, acquired lazily so a quarantined worker can
// discard its poisoned state and transparently pick up a fresh machine for
// the next fault. The comparator is allocated once per worker and reset per
// fault.
type worker struct {
	r    *Runner
	mode Mode
	ert  uint64
	ro   *runObs
	tl   *cpu.Timeline // nil unless EarlyExit lets faults be resolved by lookup

	m     *cpu.Machine  // the pooled golden cursor
	csnap *cpu.Snapshot // worker-local fault-point snapshot
	cmp   trace.Comparator
}

// close recycles the worker's cursor machine. A machine discarded by
// quarantine is nil here and never re-enters the pool.
func (w *worker) close() {
	if w.m != nil {
		w.r.pool.Put(w.m)
		w.m = nil
	}
}

// discard drops all machine state after a recovered panic: the pooled
// cursor machine must not be recycled (its invariants may be violated in
// ways a Restore cannot repair — Restore trusts buffer geometry), and the
// worker-local snapshot may have been captured from the poisoned machine
// and is dropped with it.
func (w *worker) discard() {
	w.m = nil
	w.csnap = nil
}

// jumpCycles is what moving the cursor onto a checkpoint costs, in golden
// cycles of advance: a full Restore (3 us) and the full Snapshot that must
// replace the next delta capture (31 us) at ~0.53 us a simulated cycle
// (cpu.restore_full_us, cpu.snapshot_full_us, cpu.golden_ns_per_cycle.a72).
const jumpCycles = 64

// runChunk runs the faults of [lo, hi) that ran marks. A fault the golden
// site timeline resolves is done without a machine; the others fork in the
// order of their fork cycles, which keeps the cursor monotonic (a stable
// sort: faults forking at one cycle keep the list's order and batch on one
// snapshot).
func (w *worker) runChunk(faults []fault.Fault, lo, hi int, ran []bool, results []Result) {
	var local tally
	now := func() (t time.Time) { return t }
	if w.ro != nil {
		now = nowFn
		defer w.ro.merge(&local)
	}
	done := func(i int, t0 time.Time, res Result, delta cpu.Stats, fm forkMeta) {
		results[i] = res
		if w.ro != nil {
			w.ro.fault(&local, &res, now().Sub(t0), delta, fm)
		}
	}
	type fork struct {
		i  int
		at uint64
	}
	forks := make([]fork, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if !ran[i] {
			continue
		}
		t0 := now()
		if at, res, delta, fm := w.resolve(faults[i]); fm.resolved != 0 {
			done(i, t0, res, delta, fm)
		} else {
			forks = append(forks, fork{i, at})
		}
	}
	slices.SortStableFunc(forks, func(a, b fork) int { return cmp.Compare(a.at, b.at) })
	for _, fk := range forks {
		t0 := now()
		res, delta, fm := w.runGuarded(faults[fk.i], fk.at)
		done(fk.i, t0, res, delta, fm)
	}
}

// resolve is the one place a campaign decides that a fault is golden. It asks
// the golden site timeline what becomes of f, injected at f.Cycle with the
// window its mode gives it: in ModeAVGI to the first golden commit beyond
// f.Cycle+ert, or to the program's end; in the other modes to the program's
// end. A flip covers one site, or two when a multi-bit flip straddles a
// register's or queue slot's boundary, and each site held nothing reachable
// (dead), is erased before anything reads it, meets no event in the window
// (untouched), or is read. With no live site read the fault is settled
// here, and fm.resolved says why: dead when no site was live, charged 1
// cycle; erased when every live site was, charged up to the latest erase;
// untouched when one live site stays so, charged the whole window. Outside
// ModeAVGI the charge is the run to the golden halt, which a machine equal
// to golden reaches with it. A queue slot's one read is its commit, where
// the shadow integrity check fires: a fault on one live slot that commits
// at a cycle before end resolves as that machine check, in every mode
// charged at the commit. At end itself the commit may lie behind the one
// that closes the window, and the run decides. resolve writes no Result
// itself: it states the run a fork would make — stopped at end by the AVGI
// window, halted with golden, or crashed at the commit — and classify
// labels it, as it labels the forked runs.
//
// Otherwise at is the cycle to fork at: one before the first event on any
// covered site, dead ones included, until which the faulty machine is the
// golden one with the same flips pending. An event in the window's last
// cycle may come behind the commit that ends it, and a halt flushes the
// caches: both are left to the run. A register leaves and rejoins the free
// list without an event, and the probe judges liveness where it is armed, so
// a fault on a register whose free-list state changed before that cycle
// forks at f.Cycle. So does a multi-bit fault on a cache or TLB, whose probe
// watches byte ranges and entries that the per-bit Fate does not describe,
// and every fault of a campaign without a timeline.
func (w *worker) resolve(f fault.Fault) (at uint64, res Result, delta cpu.Stats, fm forkMeta) {
	r, t, width := w.r, f.Cycle, uint64(f.Bits())
	s, _ := cpu.StructureNamed(f.Structure)
	if at = t; w.tl == nil || !s.Core() && width > 1 || f.Bit+width > r.BitCounts[f.Structure] || t >= r.Golden.Cycles {
		return
	}
	end, halts := r.Golden.Cycles, true
	if w.mode == ModeAVGI {
		tr := r.Golden.Trace
		if k := sort.Search(len(tr), func(k int) bool { return tr[k].Cycle > t+w.ert }); k < len(tr) {
			end, halts = tr[k].Cycle, false
		}
	}
	per := uint64(1) // a cache's or TLB's Fate answers for one bit
	if s.Core() {
		_, per = s.Geometry(&r.Cfg)
	}
	lo, hi := f.Bit/per, (f.Bit+width-1)/per
	facts := cpu.ProbeFacts{InjectCycle: t}
	var first, lastErase uint64 // the first event on any site; the last erase of a live one
	untouched, read := false, false
	for site := lo; site <= hi; site++ {
		bit := max(site*per, f.Bit)
		n := min((site+1)*per, f.Bit+width) - bit
		fate, masked := w.tl.Fate(f.Structure, bit, t, end)
		if masked {
			delta.FlipsMasked += n
		} else {
			delta.FlipsArmed += n
		}
		ev := fate.Cycle
		if ev == 0 && fate.Live && halts && s.Cache {
			ev = end // only a cache array meets the halt's flush
		}
		if ev != 0 && (first == 0 || ev < first) {
			first = ev
		}
		erased := false
		switch {
		case !fate.Live:
		case ev == 0:
			untouched = true
		case ev == end || !fate.Erased():
			read = true
		default:
			erased, lastErase = true, max(lastErase, ev)
		}
		facts.AddSite(fate, erased)
	}
	switch {
	case read && s.Queue && lo == hi && first < end:
		fm.resolved, end = resolvedMachineCheck, first
	case read:
		at = first - 1
		liveAt := func(site, c uint64) bool {
			fate, _ := w.tl.Fate(f.Structure, site*per, c, c)
			return fate.Live
		}
		for site := lo; site <= hi && s.Core() && !s.Queue; site++ {
			if liveAt(site, at) != liveAt(site, t) {
				at = t
			}
		}
		return
	case facts.LiveSites == 0:
		fm.resolved, end = resolvedDead, t+1
	case untouched:
		fm.resolved = resolvedUntouched
	default:
		fm.resolved, end = resolvedErased, lastErase
	}
	run := cpu.Result{Status: cpu.StatusStopped, Cycles: end}
	switch {
	case fm.resolved == resolvedMachineCheck:
		// The run a fork would make crashes at the slot's commit, in every
		// mode, before anything else sees the flip.
		run.Status, run.Crash = cpu.StatusCrashed, cpu.CrashMachineCheck
	case w.mode != ModeAVGI:
		// A machine equal to golden halts with it, as the full run would.
		run = cpu.Result{Status: cpu.StatusHalted, Cycles: r.Golden.Cycles, Output: r.Golden.Output}
	}
	if full := r.horizon(w.mode, t, w.ert); fm.resolved == resolvedDead || fm.resolved == resolvedErased {
		fm.cyclesSaved = full - min(full, end)
	}
	var pf *cpu.ProbeFacts
	if r.Forensics != nil {
		pf = &facts
	}
	res = r.classify(f, w.mode, run, trace.Deviation{}, pf)
	return
}

// runGuarded simulates one fault, forked at cycle at, under the panic guard,
// converting a panic into a quarantined Result.
func (w *worker) runGuarded(f fault.Fault, at uint64) (res Result, delta cpu.Stats, fm forkMeta) {
	defer func() {
		if p := recover(); p != nil {
			res = Result{Fault: f, Quarantined: true, Err: fmt.Sprint(p)}
			delta = cpu.Stats{}
			fm = forkMeta{}
			w.discard()
		}
	}()
	return w.runCursor(f, at)
}

// runCursor is the golden-cursor flow: the worker's pooled
// machine plays the golden run monotonically once across its chunk's cycle
// span. Per fault it advances to the injection cycle, re-arms the
// worker-local snapshot with a dirty-delta capture, runs the faulty
// simulation, and rewinds with a dirty-delta restore — two in-place copies
// of the fault window's write footprint are the whole per-fault fork cost.
// at is the fork cycle: f.Cycle, or later when the timeline has shown the
// site untouched until then (resolve).
func (w *worker) runCursor(f fault.Fault, at uint64) (Result, cpu.Stats, forkMeta) {
	r := w.r
	jumped := false
	if w.m == nil {
		// (Re)build the cursor: seek the shared checkpoint nearest the
		// first fault, rewind a pooled machine onto it, and start a fresh
		// delta-tracking lineage. The local snapshot is captured in full
		// below (csnap == nil after a discard or on first use).
		m, reused := w.r.pool.Get()
		w.ro.poolGet(reused)
		snap, _ := w.r.store.Seek(at)
		m.Restore(snap)
		m.BeginDeltaTracking()
		w.m = m
		w.csnap = nil
	} else if snap, _ := w.r.store.Seek(at); snap.Cycle() > w.m.Cycle()+jumpCycles {
		// With most faults resolved by lookup the forks lie far apart: a
		// checkpoint between the cursor and the next one is cheaper to
		// restore than the gap is to replay. The local snapshot is then
		// stale as a whole and is captured in full below.
		w.m.Restore(snap)
		jumped = true
	}
	m := w.m
	var adv uint64
	if m.Cycle() < at && m.Status() == cpu.StatusRunning {
		// The only golden replay in this flow: the cycle-sorted chunk
		// makes every advance monotonic, so across the whole chunk the
		// cursor simulates each golden cycle at most once.
		c0 := m.Cycle()
		m.Run(cpu.RunOptions{StopAtCycle: at, MaxCycles: r.Golden.Cycles + 1})
		adv = m.Cycle() - c0
	}
	var deltaBytes uint64
	fullSync := w.csnap == nil || jumped
	batched := false
	switch {
	case fullSync:
		w.csnap = m.Snapshot(w.csnap)
	case adv != 0:
		deltaBytes = m.SyncSnapshot(w.csnap)
	default:
		// Same-cycle batch: the previous fault's SyncRestore left the
		// machine bit-identical to csnap and the cursor did not advance,
		// so the snapshot is already current — one re-arm serves every
		// fault landing on this cursor cycle.
		batched = true
	}
	cowBase := m.Mem.RAM.CowPrivatized()
	res, delta := r.injectAndObserve(m, f, w.mode, w.ert, &w.cmp)
	cow := m.Mem.RAM.CowPrivatized() - cowBase
	deltaBytes += m.SyncRestore(w.csnap)
	return res, delta, forkMeta{
		cowPages:   cow,
		advCycles:  adv,
		deltaBytes: deltaBytes,
		fullSync:   fullSync,
		batched:    batched,
	}
}

// injectAndObserve is the one routine that flips a fault's bits; it runs
// the faulty machine and hands the run to classify. The caller has
// positioned m at the injection cycle. cmp is the caller's comparator,
// re-aimed at the golden trace, reset and rearmed here so a worker
// allocates one comparator for its whole chunk instead of one per fault.
// The second return value is the machine statistics the faulty run added
// (post-fork delta), consumed by the telemetry layer.
func (r *Runner) injectAndObserve(m *cpu.Machine, f fault.Fault, mode Mode, ert uint64,
	cmp *trace.Comparator) (Result, cpu.Stats) {
	statsAtFork := m.Stats
	tg := m.Target(f.Structure)
	if tg == nil {
		panic("campaign: unknown structure " + f.Structure)
	}
	// Width > 1 models a spatial multi-bit upset: adjacent bits of the
	// same array flip together (Section VII.A). The range must lie inside
	// the array — wrapping to bit 0 would flip a non-neighbour, so a
	// fault list that allows it is a programming error (fault.ListMultiBit
	// caps start bits at bitCount-width).
	width := uint64(f.Bits())
	if f.Bit+width > tg.BitCount() {
		panic(fmt.Sprintf("campaign: fault %s wraps past the end of %s (%d bits)",
			f, f.Structure, tg.BitCount()))
	}
	for i := uint64(0); i < width; i++ {
		tg.FlipBit(f.Bit + i)
	}
	// Under forensics a fate probe is armed after the flip and cleared
	// before this function returns, so the fork machinery around it
	// (worker-local sync snapshots before, restores after) never observes
	// one.
	var probe *cpu.FaultProbe
	if r.Forensics != nil {
		probe = m.ArmProbe(f.Structure, f.Bit, int(width))
		probe.AnchorAt(f.Cycle)
	}

	// Reset keeps the Golden slice, so aim first.
	cmp.Golden = r.Golden.Trace
	cmp.Reset()
	cmp.StartAt(int(m.Stats.Commits))
	switch mode {
	case ModeHVF:
		cmp.StopAtFirst = true
	case ModeAVGI:
		cmp.StopAtFirst = true
		cmp.StopCycle = f.Cycle + ert
	}
	m.SetSink(cmp)
	run := m.Run(cpu.RunOptions{MaxCycles: r.RunawayLimit()})
	var facts *cpu.ProbeFacts
	if probe != nil {
		m.ClearProbe()
		pf := probe.Facts()
		facts = &pf
	}
	return r.classify(f, mode, run, cmp.Dev, facts), statsDelta(m.Stats, statsAtFork)
}

// classify is the one decision procedure over how a faulty run injected
// with f ended (the paper's Fig. 2): its first commit-trace deviation dev,
// else a window that expired clean, else the crash and the output. Every
// Result a campaign writes comes from here — a forked run's, and the run
// resolve states for a fault it settles without one. facts, when non-nil,
// are the fate facts the forensics record is attributed from.
func (r *Runner) classify(f fault.Fault, mode Mode, run cpu.Result, dev trace.Deviation, facts *cpu.ProbeFacts) Result {
	crashed := run.Status == cpu.StatusCrashed || run.Status == cpu.StatusCycleLimit
	produced := run.Status == cpu.StatusHalted
	matches := produced && bytes.Equal(run.Output, r.Golden.Output)

	out := Result{
		Fault:     f,
		SimCycles: run.Cycles - f.Cycle,
		Crash:     run.Crash,
		// A run that exhausts the runaway budget is classified exactly
		// like a real crash (a hang is a crash to the injection rig),
		// but keeps the livelock/crash distinction for summaries and
		// the journal.
		Runaway: run.Status == cpu.StatusCycleLimit,
	}
	switch {
	case dev.Kind != trace.DevNone:
		out.Manifested = true
		if dev.Cycle > f.Cycle {
			out.ManifestLatency = dev.Cycle - f.Cycle
		}
		out.IMM = imm.Classify(imm.Inputs{Dev: dev, Variant: r.Cfg.Variant})
	case run.Status == cpu.StatusStopped:
		// The ERT window expired with a clean commit trace.
		out.IMM = imm.Benign
	default:
		out.IMM = imm.Classify(imm.Inputs{
			Crashed:        crashed,
			OutputProduced: produced,
			OutputMatches:  matches,
		})
		if out.IMM == imm.PRE {
			// A pre-software crash is a manifestation too: the
			// residency analysis needs the injection-to-crash
			// latency (this is what makes the ROB/LQ/SQ windows
			// of Table II derivable rather than assumed).
			out.Manifested = true
			out.ManifestLatency = run.Cycles - f.Cycle
		}
	}
	if mode == ModeExhaustive {
		out.Effect = imm.FinalEffect(crashed, produced, matches)
		out.HasEffect = true
	}
	if facts != nil {
		oc := forensics.Outcome{
			Visible:         out.Manifested,
			ManifestLatency: out.ManifestLatency,
			Dev:             dev,
		}
		if out.IMM == imm.ESC {
			// An escape through a dirty line is architecturally visible
			// in the program output even though the commit trace never
			// deviates; the whole post-injection run is its latency.
			oc.Visible = true
			oc.Escaped = true
			oc.ManifestLatency = out.SimCycles
		}
		rec := forensics.Attribute(*facts, oc)
		out.Forensics = &rec
	}
	return out
}

// statsDelta subtracts the fork-time snapshot from a clone's final stats.
func statsDelta(after, before cpu.Stats) cpu.Stats {
	return cpu.Stats{
		Commits:     after.Commits - before.Commits,
		Branches:    after.Branches - before.Branches,
		Mispredicts: after.Mispredicts - before.Mispredicts,
		Squashed:    after.Squashed - before.Squashed,
		Loads:       after.Loads - before.Loads,
		Stores:      after.Stores - before.Stores,
		FlipsArmed:  after.FlipsArmed - before.FlipsArmed,
		FlipsMasked: after.FlipsMasked - before.FlipsMasked,
	}
}

// Summary aggregates a campaign's results.
type Summary struct {
	// Total counts the classified faults. Quarantined results are
	// excluded from Total and every other tally below, so the AVF/IMM
	// fractions derived from a Summary stay unbiased by simulation
	// failures (a quarantined fault carries no classification at all).
	Total     int
	ByIMM     map[imm.IMM]int
	ByEffect  map[imm.Effect]int
	SimCycles uint64
	// Corruptions counts faults that became architecturally visible in
	// the commit trace. ESC faults count as Benign here: by definition
	// they never pass through the program trace (Section IV.D), which is
	// why phase 3 of the methodology cannot identify them.
	Corruptions int
	// Benign counts faults with no commit-trace deviation within the
	// observed window (including ESC).
	Benign int
	// Runaways counts classified faults whose run died by exhausting the
	// runaway cycle budget (livelock) rather than a real crash event;
	// they are included in the crash-side tallies above.
	Runaways int
	// Quarantined counts faults whose simulation panicked and was
	// isolated (see Result.Quarantined).
	Quarantined int
}

// String renders a compact one-line digest — total, corruptions, benign
// and the non-zero IMM tallies in Table I order — for progress lines and
// CLI output.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d faults: %d corruptions, %d benign", s.Total, s.Corruptions, s.Benign)
	if s.Runaways > 0 {
		fmt.Fprintf(&b, ", %d runaway", s.Runaways)
	}
	if s.Quarantined > 0 {
		fmt.Fprintf(&b, ", %d quarantined", s.Quarantined)
	}
	var tallies []string
	for _, c := range imm.Classes {
		if n := s.ByIMM[c]; n > 0 {
			tallies = append(tallies, fmt.Sprintf("%s %d", c, n))
		}
	}
	if len(tallies) > 0 {
		b.WriteString(" (")
		b.WriteString(strings.Join(tallies, ", "))
		b.WriteString(")")
	}
	if s.SimCycles > 0 {
		fmt.Fprintf(&b, ", %d sim cycles", s.SimCycles)
	}
	return b.String()
}

// Summarize folds results into a Summary.
func Summarize(results []Result) Summary {
	s := Summary{
		ByIMM:    make(map[imm.IMM]int),
		ByEffect: make(map[imm.Effect]int),
	}
	for _, r := range results {
		if r.Quarantined {
			s.Quarantined++
			continue
		}
		s.Total++
		s.ByIMM[r.IMM]++
		if r.IMM == imm.Benign || r.IMM == imm.ESC {
			s.Benign++
		} else {
			s.Corruptions++
		}
		if r.Runaway {
			s.Runaways++
		}
		if r.HasEffect {
			s.ByEffect[r.Effect]++
		}
		s.SimCycles += r.SimCycles
	}
	return s
}

// IMMFractions returns the IMM distribution over corruptions only (the
// paper's Fig. 3 normalisation); zero corruptions yields an empty map.
func (s Summary) IMMFractions() map[imm.IMM]float64 {
	out := make(map[imm.IMM]float64)
	if s.Corruptions == 0 {
		return out
	}
	for _, c := range imm.Classes {
		if c == imm.ESC {
			continue // not identifiable in the commit trace
		}
		out[c] = float64(s.ByIMM[c]) / float64(s.Corruptions)
	}
	return out
}

// EffectFractions returns the final-effect distribution over all faults
// (the AVF view: Masked includes benign faults).
func (s Summary) EffectFractions() map[imm.Effect]float64 {
	out := make(map[imm.Effect]float64)
	if s.Total == 0 {
		return out
	}
	for _, e := range imm.Effects {
		out[e] = float64(s.ByEffect[e]) / float64(s.Total)
	}
	return out
}
