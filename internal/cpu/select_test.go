package cpu

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"avgi/internal/isa"
	"avgi/internal/prog"
)

// operandReady reports whether an operand's value is readable this cycle.
func operandReady(m *Machine, op operand) bool {
	return !op.isReg || m.prfReadyAt[op.phys] <= m.cycle
}

// waitsInIQ reports whether rename puts an entry of class c in the issue
// queue; the others are complete when renamed.
func waitsInIQ(c isa.Class) bool {
	return c != isa.ClassNop && c != isa.ClassHalt && c != isa.ClassIllegal
}

// selectState holds the issue queue's wakeup/select state to its definition
// from the ROB, the store queue and the register file: the masks and waiter
// rows keep their configured sizes; iqCount is the IQ mask's popcount, at
// most IQSize; the IQ mask is exactly the used, unissued ROB slots of a
// class that waits to issue; of those with no pending source, the parked
// mask holds exactly the loads whose last try stalled on an older store
// that is still unresolved, and the ready mask the rest; each entry's
// pending count is its distinct unwritten source registers, and its wake
// cycle the latest cycle at which a written one becomes readable; and each
// waiter row holds exactly the entries reading that register while it is
// unwritten.
func selectState(m *Machine) error {
	words := (m.Cfg.ROBSize + 63) / 64
	if len(m.iqMask) != words || len(m.readyMask) != words || len(m.parkedMask) != words || len(m.waiters) != m.Cfg.PhysRegs*words {
		return fmt.Errorf("select state sized %d/%d/%d/%d words, want %d/%d/%d/%d",
			len(m.iqMask), len(m.readyMask), len(m.parkedMask), len(m.waiters), words, words, words, m.Cfg.PhysRegs*words)
	}
	count := 0
	for _, w := range m.iqMask {
		count += bits.OnesCount64(w)
	}
	if count != m.iqCount || count > m.Cfg.IQSize {
		return fmt.Errorf("iqCount %d, IQ mask popcount %d, IQSize %d", m.iqCount, count, m.Cfg.IQSize)
	}
	waiters := make([]uint64, len(m.waiters))
	for s := range m.rob {
		e := &m.rob[s]
		w, bit := s>>6, uint64(1)<<(s&63)
		inIQ, ready, parked := m.iqMask[w]&bit != 0, m.readyMask[w]&bit != 0, m.parkedMask[w]&bit != 0
		if want := e.used && !e.issued && waitsInIQ(e.class); inIQ != want {
			return fmt.Errorf("ROB slot %d: in the IQ mask %v, want %v (used %v, issued %v, class %v)", s, inIQ, want, e.used, e.issued, e.class)
		}
		if !inIQ {
			if ready || parked {
				return fmt.Errorf("ROB slot %d: in the ready (%v) or parked (%v) mask but not the IQ mask", s, ready, parked)
			}
			continue
		}
		blocked := false
		if e.class == isa.ClassLoad && e.sqWait != 0 {
			st := &m.sqs[e.sqWait-1]
			blocked = st.used && !st.known && st.seq <= e.seq
		}
		if parked != blocked || ready && parked {
			return fmt.Errorf("ROB slot %d: parked %v ready %v, while stalled on an unresolved store %v", s, parked, ready, blocked)
		}
		var pending uint8
		var wake uint64
		for k, op := range e.src {
			if !op.isReg || k == 1 && e.src[0] == op {
				continue
			}
			if at := m.prfReadyAt[op.phys]; at == readyNever {
				pending++
				waiters[int(op.phys)*words+w] |= bit
			} else {
				wake = max(wake, at)
			}
		}
		if e.pending != pending || e.readyAt != wake || (ready || parked) != (pending == 0) {
			return fmt.Errorf("ROB slot %d: pending %d wake %d ready or parked %v, want %d, %d and %v",
				s, e.pending, e.readyAt, ready || parked, pending, wake, pending == 0)
		}
	}
	for i, row := range m.waiters {
		if row != waiters[i] {
			return fmt.Errorf("register %d: waiter row word %d is %#x, want %#x", i/words, i%words, row, waiters[i])
		}
	}
	return nil
}

// refStep advances m one cycle as Tick does, but selects with a copy of the
// issue stage that rescanned the whole issue queue every cycle: the waiting
// entries in program order from the ROB head, the first IssueWidth whose
// operands are readable and whose execute succeeds, a load that stalls on
// an unresolved store retried every cycle. The rest of the machine runs the
// production code, the select state's bookkeeping included (a stalled load
// is parked, so that both machines' masks stay comparable, and retried all
// the same). It returns the ROB slots it issued, in order.
func refStep(m *Machine) []int {
	if m.status != StatusRunning {
		return nil
	}
	m.cycle++
	m.commitStage()
	if m.status != StatusRunning {
		return nil
	}
	var picked []int
	for k, idx := 0, m.robHead; k < m.robCount && len(picked) < m.Cfg.IssueWidth; k, idx = k+1, ringNext(idx, len(m.rob)) {
		e := m.robAt(idx)
		if e.issued || !waitsInIQ(e.class) || !operandReady(m, e.src[0]) || !operandReady(m, e.src[1]) {
			continue
		}
		ok, squashed := m.execute(idx, e)
		if !ok {
			if e.sqWait != 0 {
				m.park(idx)
			}
			continue
		}
		e.issued = true
		m.iqRemove(idx, e)
		picked = append(picked, idx)
		if squashed {
			break
		}
	}
	m.renameStage()
	m.fetchStage()
	if m.cycle-m.lastCommitCycle > m.Cfg.WatchdogCommitGap {
		m.crashNow(CrashWatchdog)
	}
	return picked
}

// stepPicks steps m and returns the ROB slots its issue stage issued, in
// program order: those waiting before the step and issued after it (an
// entry issued in a cycle is older than any the cycle squashes).
func stepPicks(m *Machine, waiting []bool, picks []int) []int {
	for s := range m.rob {
		waiting[s] = m.rob[s].used && !m.rob[s].issued
	}
	m.Step()
	picks = picks[:0]
	for k, s := 0, m.robHead; k < len(m.rob); k, s = k+1, ringNext(s, len(m.rob)) {
		if waiting[s] && m.rob[s].used && m.rob[s].issued {
			picks = append(picks, s)
		}
	}
	return picks
}

// TestIssueSelectDifferential runs the wakeup/select issue stage in
// lockstep with a copy of the program-order walk it replaced, on all 13
// programs on both machines, fault-free and with an RF and an L1D (Data)
// flip that change the run, and requires both to issue exactly the same ROB
// slots every cycle, to end in the same state, and to report the same
// events to a recording timeline or a fate probe.
func TestIssueSelectDifferential(t *testing.T) {
	workloads := prog.All()
	if testing.Short() {
		workloads = workloads[:3]
	}
	for _, cfg := range []Config{ConfigA72(), ConfigA15()} {
		for wi, w := range workloads {
			cfg, w, wi := cfg, w, wi
			t.Run(w.Name+"/"+cfg.Variant.String(), func(t *testing.T) {
				t.Parallel()
				p := w.Build(cfg.Variant)
				golden := New(cfg, p)
				golden.Run(RunOptions{MaxCycles: snapTestMaxCycles})
				rng := rand.New(rand.NewSource(int64(wi)))
				limit := 2*golden.Cycle() + cfg.WatchdogCommitGap

				// consequential draws up to 64 flips of structure label, each
				// at a cycle of the golden run, and returns the first that
				// changes the run: its length, what it squashes, how it ends
				// or its output.
				consequential := func(label string, draw func(*Machine) uint64) (at, bit uint64) {
					for try := 0; try < 64; try++ {
						at = 1 + uint64(rng.Int63n(int64(golden.Cycle()-1)))
						m := New(cfg, p)
						m.Run(RunOptions{StopAtCycle: at})
						bit = draw(m)
						m.Target(label).FlipBit(bit)
						m.Run(RunOptions{MaxCycles: limit})
						if m.Cycle() != golden.Cycle() || m.Stats.Squashed != golden.Stats.Squashed ||
							m.Status() != golden.Status() || !bytes.Equal(m.Output(), golden.Output()) {
							return at, bit
						}
					}
					t.Fatalf("%s: none of 64 flips changed the run", label)
					return 0, 0
				}

				// run steps the two machines from cycle 0, each recording a
				// golden site timeline; with inject set it flips bit of
				// structure label in both at cycle at and arms a fate probe
				// on it instead. Timelines and probe facts must agree too:
				// they see every register read, a parked load's included.
				run := func(label string, at, bit uint64, inject bool) {
					a, b := New(cfg, p), New(cfg, p)
					var tla, tlb *Timeline
					var pa, pb *FaultProbe
					if !inject {
						tla, tlb = a.RecordTimeline(), b.RecordTimeline()
					}
					waiting, picks := make([]bool, cfg.ROBSize), []int(nil)
					for a.Status() == StatusRunning && a.Cycle() < limit {
						if inject && a.Cycle() == at {
							a.Target(label).FlipBit(bit)
							b.Target(label).FlipBit(bit)
							pa, pb = a.ArmProbe(label, bit, 1), b.ArmProbe(label, bit, 1)
						}
						picks = stepPicks(a, waiting, picks)
						if want := refStep(b); !slices.Equal(picks, want) || a.Status() != b.Status() {
							t.Fatalf("%s cycle %d: select issued %v (%v), the walk %v (%v)", label, a.Cycle(), picks, a.Status(), want, b.Status())
						}
						if a.Cycle()%16 == 0 {
							if err := selectState(a); err != nil {
								t.Fatalf("%s cycle %d: %v", label, a.Cycle(), err)
							}
						}
					}
					if a.Cycle() != b.Cycle() || a.Stats != b.Stats || !reflect.DeepEqual(a.Output(), b.Output()) ||
						!reflect.DeepEqual(&a.Snapshot(nil).m, &b.Snapshot(nil).m) {
						t.Fatalf("%s: the two machines ended apart at cycles %d and %d", label, a.Cycle(), b.Cycle())
					}
					if tla != nil {
						tla.Seal()
						tlb.Seal()
						if !reflect.DeepEqual(tla, tlb) {
							t.Fatalf("%s: the two machines recorded different timelines", label)
						}
					}
					if pa != nil && pa.Facts() != pb.Facts() {
						t.Fatalf("%s: probe facts %+v, the walk's %+v", label, pa.Facts(), pb.Facts())
					}
					if a.Stats.Squashed == 0 {
						t.Errorf("%s: the run never squashed", label)
					}
				}
				run("golden", 0, 0, false)
				// A low bit of a committed register's physical register.
				at, bit := consequential("RF", func(m *Machine) uint64 {
					reg := m.committedMap[1+rng.Intn(len(m.committedMap)-1)]
					return uint64(reg)*uint64(cfg.Variant.Width()) + uint64(rng.Intn(4))
				})
				run("RF", at, bit, true)
				// A bit of a line in either way of a set a load or store in
				// flight addresses (the page table is the identity).
				at, bit = consequential("L1D (Data)", func(m *Machine) uint64 {
					var addrs []uint64
					for k, i := 0, m.robHead; k < m.robCount; k, i = k+1, ringNext(i, len(m.rob)) {
						if e := &m.rob[i]; (e.class == isa.ClassLoad || e.class == isa.ClassStore) && e.issued && e.exc == excNone {
							addrs = append(addrs, e.effAddr)
						}
					}
					if len(addrs) == 0 {
						return uint64(rng.Int63n(int64(m.Target("L1D (Data)").BitCount())))
					}
					c, addr := cfg.Mem.L1D, addrs[rng.Intn(len(addrs))]
					line := int(addr/uint64(c.LineBytes))%c.Sets*c.Ways + rng.Intn(c.Ways)
					return uint64(line*c.LineBytes*8 + rng.Intn(c.LineBytes*8))
				})
				run("L1D (Data)", at, bit, true)
			})
		}
	}
}
