package cpu

import (
	"testing"

	"avgi/internal/prog"
	"avgi/internal/trace"
)

// The allocation guards below enforce docs/PERFORMANCE.md's rule that
// nothing reachable from Machine.Tick allocates: the fetch queue and issue
// queue live in their one buffer for the life of the machine, and a
// snapshot re-capture or rewind reuses every array.

// goldenTrace runs the workload fault-free and returns its commit trace.
func goldenTrace(t testing.TB, cfg Config, name string) (*Machine, []trace.Record) {
	t.Helper()
	w, err := prog.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg, w.Build(cfg.Variant))
	var golden trace.Capture
	m.SetSink(&golden)
	if res := m.Run(RunOptions{MaxCycles: snapTestMaxCycles}); res.Status != StatusHalted {
		t.Fatalf("golden run of %s ended %v", name, res.Status)
	}
	return m, golden.Records
}

// TestAllocStepIsFree: 10 000 cycles of a warmed machine with a comparator
// sink allocate nothing.
func TestAllocStepIsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, tc := range []struct {
		cfg  Config
		prog string
	}{{ConfigA72(), "sha"}, {ConfigA15(), "qsort"}} {
		ref, golden := goldenTrace(t, tc.cfg, tc.prog)
		m := New(tc.cfg, ref.Prog)
		cmp := &trace.Comparator{Golden: golden}
		m.SetSink(cmp)
		m.Run(RunOptions{StopAtCycle: 1000})
		// AllocsPerRun calls the function twice (one warm-up); together
		// the two calls are the 10 000 steps, and sha/A72 halts soon after.
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 5000; i++ {
				m.Step()
			}
		})
		if m.Status() != StatusRunning || cmp.Dev.Kind != trace.DevNone {
			t.Fatalf("%s/%s: status %v, deviation %v", tc.prog, tc.cfg.Name, m.Status(), cmp.Dev.Kind)
		}
		if allocs != 0 {
			t.Errorf("%s/%s: 5000 steps allocated %v times, want 0", tc.prog, tc.cfg.Name, allocs)
		}
	}
}

// cursorFaultAllocs bounds the allocations of one fault on the golden
// cursor outside Tick: the resolved Target (1) and the per-Run engine's
// ticker list and stats (2).
const cursorFaultAllocs = 3

// TestAllocCursorFault replays one fault the way campaign's runCursor does
// without forensics — SyncSnapshot, flip, a comparator-watched window,
// SyncRestore; only forensics arms a fate probe — and checks that the whole
// fault stays within cursorFaultAllocs and that the window's cycles add
// nothing to it beyond the RAM pages a write-back privatized (copy-on-write
// against the snapshot, internal/mem's concern).
func TestAllocCursorFault(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := ConfigA72()
	ref, golden := goldenTrace(t, cfg, "sha")
	m := New(cfg, ref.Prog)
	m.Run(RunOptions{StopAtCycle: ref.Cycle() / 2})
	m.BeginDeltaTracking()
	snap := m.Snapshot(nil)
	cmp := &trace.Comparator{}

	// A flip in the register at the bottom of the free stack is never read
	// before it is overwritten, so the window runs its full length.
	const window = 2000
	bit := uint64(m.freeList[0])*64 + 5
	var cow, ran uint64
	fault := func(advance func()) func() {
		return func() {
			m.SyncSnapshot(snap)
			cow0, c0 := m.Mem.RAM.CowPrivatized(), m.Cycle()
			tg := m.Target("RF")
			tg.FlipBit(bit)
			cmp.Golden = golden
			cmp.Reset()
			cmp.StartAt(int(m.Stats.Commits))
			cmp.StopAtFirst, cmp.StopCycle = true, m.Cycle()+window
			m.SetSink(cmp)
			advance()
			cow, ran = m.Mem.RAM.CowPrivatized()-cow0, m.Cycle()-c0
			m.SyncRestore(snap)
		}
	}
	run := fault(func() { m.Run(RunOptions{MaxCycles: snapTestMaxCycles}) })
	step := fault(func() {
		for i := 0; i < window && m.Status() == StatusRunning; i++ {
			m.Step()
		}
	})
	idle := fault(func() {})

	got := testing.AllocsPerRun(5, run)
	t.Logf("one cursor fault allocated %v times (%d COW pages)", got, cow)
	if got > cursorFaultAllocs+float64(cow) {
		t.Errorf("one cursor fault allocated %v times, want <= %d (+%d COW pages)", got, cursorFaultAllocs, cow)
	}
	if ran < window || cmp.Dev.Kind != trace.DevNone {
		t.Fatalf("the window ran %d cycles (deviation %v), want a clean %d", ran, cmp.Dev.Kind, window)
	}
	stepped := testing.AllocsPerRun(5, step)
	steppedCow := cow
	if base := testing.AllocsPerRun(5, idle); stepped != base+float64(steppedCow) {
		t.Errorf("the window's Ticks allocated: %v per fault with them, %v without (%d COW pages)", stepped, base, steppedCow)
	}
}
