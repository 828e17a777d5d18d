package cpu

import (
	"fmt"

	"avgi/internal/asm"
	"avgi/internal/engine"
	"avgi/internal/isa"
	"avgi/internal/mem"
	"avgi/internal/trace"
)

// excKind is a precise exception recorded in a ROB entry and raised when the
// entry reaches the commit head.
type excKind uint8

const (
	excNone excKind = iota
	excIllegal
	excPage
	excAlign
)

// CrashKind explains why a run crashed.
type CrashKind uint8

const (
	CrashNone CrashKind = iota
	// CrashMachineCheck is a shadow-integrity (simulator assertion)
	// failure: corrupted ROB/LQ/SQ control state was about to be used.
	CrashMachineCheck
	// CrashIllegal is an undefined-instruction exception at commit.
	CrashIllegal
	// CrashPageFault is an access to an unmapped page.
	CrashPageFault
	// CrashAlignFault is a misaligned access.
	CrashAlignFault
	// CrashWatchdog fires when no instruction commits for the configured
	// gap or the cycle limit is exceeded.
	CrashWatchdog
)

func (k CrashKind) String() string {
	switch k {
	case CrashNone:
		return "none"
	case CrashMachineCheck:
		return "machine check"
	case CrashIllegal:
		return "illegal instruction"
	case CrashPageFault:
		return "page fault"
	case CrashAlignFault:
		return "alignment fault"
	case CrashWatchdog:
		return "watchdog"
	}
	return fmt.Sprintf("crash(%d)", uint8(k))
}

// Status is the lifecycle state of a machine.
type Status uint8

const (
	StatusRunning Status = iota
	// StatusHalted means the program executed HALT; output was drained.
	StatusHalted
	// StatusCrashed means a catastrophic event ended the run.
	StatusCrashed
	// StatusStopped means the trace sink asked the run to stop early.
	StatusStopped
	// StatusCycleLimit means the run hit the caller's cycle budget.
	StatusCycleLimit
)

func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusHalted:
		return "halted"
	case StatusCrashed:
		return "crashed"
	case StatusStopped:
		return "stopped"
	case StatusCycleLimit:
		return "cycle limit"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

const noReg = ^uint16(0)

// operand is a renamed source operand: either a physical register or a
// constant resolved at rename time (the zero register and immediates).
type operand struct {
	isReg bool
	phys  uint16
	con   uint64
}

// robEntry is one reorder-buffer slot with all in-flight state. The fields
// are ordered so that no padding is left: the entry is 128 bytes, two host
// cache lines (TestROBEntrySize).
type robEntry struct {
	seq uint64

	pc   uint64
	word uint32
	inst isa.Inst

	used  bool
	class isa.Class

	hasDest  bool
	destArch uint8
	destPhys uint16
	oldPhys  uint16

	src [2]operand

	issued bool
	done   bool
	// sqWait is 1 + the SQ slot of the unresolved older store this load
	// last stalled on, 0 for none (see executeLoad).
	sqWait uint16
	// pending counts the distinct source registers a waiting entry's
	// producers have not written yet (see iqInsert).
	pending uint8

	exc excKind

	// Branch state. Mispredict recovery walks the ROB back from the
	// tail, undoing rename effects, so no checkpoint is stored.
	predTaken bool

	// injected marks surface corruption from fault injection; the shadow
	// integrity check fires when the entry commits.
	injected bool

	// readyAt is the cycle an issued entry completes. Before issue it is
	// the entry's wake cycle: the latest cycle at which one of its written
	// source registers becomes readable.
	readyAt uint64

	predTarget uint64

	// Memory state.
	lq int
	sq int

	result  uint64
	effAddr uint64
}

type fqEntry struct {
	pc         uint64
	word       uint32
	inst       isa.Inst // pre-decoded at fetch; rename reuses it
	readyAt    uint64
	predTaken  bool
	predTarget uint64
	fetchExc   excKind
}

type lqEntry struct {
	used     bool
	rob      int
	seq      uint64
	addr     uint64
	size     uint64
	known    bool
	injected bool
}

type sqEntry struct {
	used     bool
	rob      int
	seq      uint64
	addr     uint64
	size     uint64
	data     uint64
	known    bool
	injected bool
}

// Stats accumulates run statistics (protected state).
type Stats struct {
	Commits     uint64
	Branches    uint64
	Mispredicts uint64
	Squashed    uint64
	Loads       uint64
	Stores      uint64

	// Masking-source counters for fault injection: FlipsArmed counts
	// FlipBit calls that landed on live state (the fault is in play);
	// FlipsMasked counts flips that hit a free queue slot and were
	// overwritten at the next allocation — masked at the injection site
	// before ever reaching the software layer.
	FlipsArmed  uint64
	FlipsMasked uint64
}

// Machine is one simulated CPU attached to a memory hierarchy with a loaded
// program.
type Machine struct {
	Cfg  Config
	Prog *asm.Program
	Mem  *mem.Hierarchy

	// text is Prog.Text decoded once: immutable, shared with every copy
	// of the machine like Prog itself (hence a pointer, not a state slice).
	text *[]isa.Inst

	// Physical register file: the value array is a fault target.
	prf        []uint64
	prfReadyAt []uint64

	renameMap    []uint16 // speculative map (protected)
	committedMap []uint16 // architectural map (protected)
	freeList     []uint16 // LIFO stack of free physical registers
	freeTop      int

	rob      []robEntry
	robHead  int
	robTail  int
	robCount int
	seqNext  uint64

	// The issue queue, by ROB slot (see issueStage): iqMask holds the
	// entries waiting to issue and iqCount their number. Those whose source
	// registers are all written (pending == 0) are in readyMask, or in
	// parkedMask while a load among them waits for an older store's address
	// (see park). waiters holds one row of len(iqMask) words per physical
	// register: the waiting entries whose producer of that register has not
	// executed yet.
	iqMask     []uint64
	readyMask  []uint64
	parkedMask []uint64
	waiters    []uint64
	iqCount    int

	lqs    []lqEntry
	lqHead int
	lqTail int
	lqCnt  int

	sqs    []sqEntry
	sqHead int
	sqTail int
	sqCnt  int

	fq []fqEntry

	fetchPC         uint64
	fetchHalted     bool
	fetchStallUntil uint64

	bimodal []uint8  // 2-bit counters
	btb     []uint64 // indirect-branch targets, direct-mapped by PC

	// Dirty-delta tracking (cursor forks): predictor entries written since
	// the last snapshot/restore sync point. Only the predictor arrays are
	// worth tracking on the core side — they are large, cold and mostly
	// stable, while the pipeline queues and register file churn completely
	// within any fault window and are always copied whole.
	bimTouched mem.DirtySet
	btbTouched mem.DirtySet

	cycle           uint64
	lastCommitCycle uint64

	status Status
	crash  CrashKind

	sink trace.Sink

	Stats Stats

	output []byte

	// profile, when non-nil, samples the dirty-output-line occupancy of
	// the data caches during the run (golden runs only; copies drop it).
	profile *outputProfile

	// probe, when non-nil, observes the fate of an injected fault's
	// corrupted state (see probe.go). Armed after the flip and cleared
	// before the faulty machine is rewound; a nil probe keeps every
	// pipeline stage on the exact pre-forensics code.
	probe *FaultProbe
}

// outputProfile records how much of each cache array holds dirty data
// destined for the program output — the exposure that makes ESC faults
// possible (Section IV.D). Sampled every interval cycles as a time series
// so the campaign runner can weight each sample by how much of the output
// is already in its final state.
type outputProfile struct {
	lo, hi   uint64
	interval uint64

	cycles []uint64
	l1d    []uint32 // dirty output lines in L1D per sample
	l2     []uint32
}

// New builds a machine for cfg and loads the program image.
func New(cfg Config, prog *asm.Program) *Machine {
	if prog.Variant != cfg.Variant {
		panic(fmt.Sprintf("cpu: program %s assembled for %s but machine is %s",
			prog.Name, prog.Variant, cfg.Variant))
	}
	if cfg.BTBEntries&(cfg.BTBEntries-1) != 0 {
		panic(fmt.Sprintf("cpu: BTBEntries %d is not a power of two", cfg.BTBEntries))
	}
	// The select reads a register no earlier than the cycle after the one
	// that wrote it, as a load's latency already guarantees.
	if cfg.LatALU == 0 || cfg.LatMul == 0 || cfg.LatDiv == 0 {
		panic(fmt.Sprintf("cpu: execute latencies ALU %d, Mul %d, Div %d: each must be at least 1",
			cfg.LatALU, cfg.LatMul, cfg.LatDiv))
	}
	m := &Machine{Cfg: cfg, Prog: prog}
	m.Mem = mem.NewHierarchy(cfg.Mem)

	// Load the program image into physical memory.
	text := make([]byte, len(prog.Text)*4)
	decoded := make([]isa.Inst, len(prog.Text))
	for i, w := range prog.Text {
		text[i*4] = byte(w)
		text[i*4+1] = byte(w >> 8)
		text[i*4+2] = byte(w >> 16)
		text[i*4+3] = byte(w >> 24)
		decoded[i] = isa.Decode(w, cfg.Variant)
	}
	m.text = &decoded
	m.Mem.RAM.WriteBlock(prog.TextBase, text)
	m.Mem.RAM.WriteBlock(prog.DataBase, prog.Data)

	n := cfg.Variant.NumArchRegs()
	m.prf = make([]uint64, cfg.PhysRegs)
	m.prfReadyAt = make([]uint64, cfg.PhysRegs)
	m.renameMap = make([]uint16, n)
	m.committedMap = make([]uint16, n)
	// Architectural registers start mapped to physical 0..n-1 (all zero);
	// the rest go on the free list.
	for i := 0; i < n; i++ {
		m.renameMap[i] = uint16(i)
		m.committedMap[i] = uint16(i)
	}
	m.freeList = make([]uint16, cfg.PhysRegs)
	for p := n; p < cfg.PhysRegs; p++ {
		m.freeList[m.freeTop] = uint16(p)
		m.freeTop++
	}

	// Initialise the stack pointer convention: SP = top of RAM.
	sp := cfg.Mem.RAMSize - 16
	m.prf[m.renameMap[asm.SP]] = sp & cfg.Variant.Mask()

	m.rob = make([]robEntry, cfg.ROBSize)
	m.lqs = make([]lqEntry, cfg.LQSize)
	m.sqs = make([]sqEntry, cfg.SQSize)
	words := (cfg.ROBSize + 63) / 64
	m.iqMask = make([]uint64, words)
	m.readyMask = make([]uint64, words)
	m.parkedMask = make([]uint64, words)
	m.waiters = make([]uint64, cfg.PhysRegs*words)
	m.fq = make([]fqEntry, 0, cfg.FetchQueue)
	m.bimodal = make([]uint8, 1<<cfg.BPBits)
	for i := range m.bimodal {
		m.bimodal[i] = 1 // weakly not-taken
	}
	m.btb = make([]uint64, cfg.BTBEntries)

	m.fetchPC = prog.TextBase
	return m
}

// SetSink installs the commit-trace sink.
func (m *Machine) SetSink(s trace.Sink) { m.sink = s }

// Cycle returns the current cycle number.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Status returns the machine's lifecycle state.
func (m *Machine) Status() Status { return m.status }

// Crash returns the crash kind for StatusCrashed machines.
func (m *Machine) Crash() CrashKind { return m.crash }

// Output returns the DMA-drained output of a halted machine (nil
// otherwise).
func (m *Machine) Output() []byte { return m.output }

// EnableOutputProfiling turns on dirty-output-exposure sampling over the
// address range [lo, hi) every interval cycles. Campaign golden runs use
// it to feed the ESC predictor; it is pure observation and does not change
// timing or state.
func (m *Machine) EnableOutputProfiling(lo, hi, interval uint64) {
	if interval == 0 {
		interval = 64
	}
	m.profile = &outputProfile{lo: lo, hi: hi, interval: interval}
}

// OutputProfile returns the sampled dirty-output-line time series of an
// ESC-capable structure: the sample cycles, the dirty output lines of its
// cache at each, and the cache's size in lines. The campaign runner folds
// these into the structure's exposure fraction.
func (m *Machine) OutputProfile(structure string) (cycles []uint64, dirty []uint32, lines int) {
	p := m.profile
	if p == nil {
		return nil, nil, 0
	}
	s, _ := StructureNamed(structure)
	_, caches := m.memArrays()
	return p.cycles, [3][]uint32{1: p.l1d, 2: p.l2}[s.unit], caches[s.unit].Lines()
}

// Name implements engine.Ticker.
func (m *Machine) Name() string { return "core" }

// Step advances the machine one clock cycle. It is a thin wrapper over Tick
// for callers that drive the machine directly rather than through an
// engine (tests, the campaign cursor's single-cycle seeks).
func (m *Machine) Step() {
	m.Tick(m.cycle + 1)
}

// Tick implements engine.Ticker: one clock cycle of the core. Stages run in
// reverse pipeline order so that a cycle's results are visible to earlier
// stages only on the next cycle. The machine keeps its own cycle counter
// (the engine's clock and m.cycle coincide only when the machine starts at
// cycle 0, which is all the engine needs — ordering, not absolute time).
func (m *Machine) Tick(uint64) {
	if m.status != StatusRunning {
		return
	}
	m.cycle++
	if p := m.profile; p != nil && m.cycle%p.interval == 0 {
		p.cycles = append(p.cycles, m.cycle)
		p.l1d = append(p.l1d, uint32(m.Mem.L1D.DirtyLinesInRange(p.lo, p.hi)))
		p.l2 = append(p.l2, uint32(m.Mem.L2.DirtyLinesInRange(p.lo, p.hi)))
	}
	m.commitStage()
	if m.status != StatusRunning {
		return
	}
	m.issueStage()
	m.renameStage()
	m.fetchStage()

	if m.cycle-m.lastCommitCycle > m.Cfg.WatchdogCommitGap {
		m.crashNow(CrashWatchdog)
	}
	// Early-exit oracle: with a convergence-armed probe, stop the faulty
	// run the moment its facts prove the machine state is golden again.
	// Only the benchmark's anatomy replay arms one, and ROADMAP 1(a)
	// deletes this stop with it (see EnableConvergenceStop). One nil check
	// when no probe is armed, matching the cost promise of the other probe
	// hooks.
	if p := m.probe; p != nil && p.stopOnConverge && m.status == StatusRunning && p.Converged() {
		m.status = StatusStopped
	}
}

// crashNow terminates the run with the given crash kind.
func (m *Machine) crashNow(k CrashKind) {
	m.status = StatusCrashed
	m.crash = k
}

// halt completes a successful run: caches are flushed and the DMA engine
// drains the output region from physical memory.
func (m *Machine) halt() {
	m.status = StatusHalted
	out := m.Mem.DrainOutput(m.Prog.OutBase, m.Prog.OutLenAddr, m.Cfg.Variant.WordBytes())
	m.output = append([]byte(nil), out...)
}

// RunOptions controls a Run invocation.
type RunOptions struct {
	// MaxCycles is the absolute cycle budget (0 means a generous default
	// of 100M cycles).
	MaxCycles uint64
	// StopAtCycle pauses the run when the cycle counter reaches this
	// value (0 disables). Used to position checkpoints.
	StopAtCycle uint64
}

// Result summarises a completed run.
type Result struct {
	Status  Status
	Crash   CrashKind
	Cycles  uint64
	Commits uint64
	Output  []byte

	// Engine holds the tick-engine activity counters of the Run call
	// that produced this result (telemetry; not machine state).
	Engine engine.Stats
}

// Run advances the machine until it halts, crashes, is stopped by the sink,
// or exhausts the cycle budget. Each Run drives a fresh serial engine with
// the machine registered as its only ticking component; the engine is
// per-call state, so snapshots, clones and restores of the machine never
// carry scheduler state with them.
func (m *Machine) Run(opts RunOptions) Result {
	eng := engine.New()
	eng.Register(m)
	max := opts.MaxCycles
	if max == 0 {
		max = 100_000_000
	}
	for m.status == StatusRunning {
		if m.cycle >= max {
			m.status = StatusCycleLimit
			break
		}
		if opts.StopAtCycle > 0 && m.cycle >= opts.StopAtCycle {
			break
		}
		eng.RunCycle()
	}
	return Result{
		Status:  m.status,
		Crash:   m.crash,
		Cycles:  m.cycle,
		Commits: m.Stats.Commits,
		Output:  m.output,
		Engine:  eng.Stats(),
	}
}

// robAt returns the entry at ring index i.
func (m *Machine) robAt(i int) *robEntry { return &m.rob[i] }

// ringNext returns the index after i in a ring of n slots. A wrap-compare
// instead of the modulo spares the hot commit/rename/load loops an integer
// division (ring sizes are fixed per config but not compile-time constants
// the compiler could strength-reduce).
func ringNext(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

// ringPrev returns the index before i in a ring of n slots.
func ringPrev(i, n int) int {
	if i == 0 {
		return n - 1
	}
	return i - 1
}
