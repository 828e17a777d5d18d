// Package ckpt is the checkpoint subsystem of the fault-injection campaign:
// a read-only Store of interval snapshots recorded along the golden run,
// and a Pool of reusable machines that campaign workers play the golden
// cursor on.
//
// Together they replace the clone-everything fork model: instead of every
// worker advancing a private "mother" machine from cycle 0 and deep-copying
// it per fault, the golden prefix is simulated once while recording a
// snapshot every Interval cycles; each worker then seeks the nearest
// checkpoint at or before its chunk's first injection cycle, restores a
// pooled machine in place (re-simulating at most Interval-1 cycles), and
// from there forks every fault of the chunk off that one machine with
// dirty-delta copies (campaign's golden cursor). This is the
// checkpoint-accelerated flow of the paper's Section IV.B, where campaign
// throughput comes from cheap fork/restore rather than faithful per-fault
// machine construction.
package ckpt

import (
	"sort"
	"sync"

	"avgi/internal/asm"
	"avgi/internal/cpu"
	"avgi/internal/mem"
)

// MinInterval is the floor on the checkpoint interval: below this the
// capture cost grows faster than the re-simulation it saves.
const MinInterval = 128

// intervalDivisor bounds the number of checkpoints per golden run (at most
// goldenCycles/DefaultInterval ≈ 256 plus the cycle-0 snapshot).
const intervalDivisor = 256

// DefaultInterval derives the checkpoint interval from the golden run
// length: goldenCycles/256, floored at MinInterval. Short programs get a
// single cycle-0 checkpoint; long ones get at most ~256 evenly spaced ones,
// capping both store memory and the worst-case re-simulation distance.
// Chained captures (Record) share what did not change since the previous
// one, which is what makes this density affordable.
func DefaultInterval(goldenCycles uint64) uint64 {
	if v := goldenCycles / intervalDivisor; v > MinInterval {
		return v
	}
	return MinInterval
}

// Store is an immutable sequence of machine snapshots taken every Interval
// cycles along the golden run, starting at cycle 0. After Record returns
// the store is read-only and safe for concurrent Seek/Restore from any
// number of workers.
type Store struct {
	interval uint64
	cycles   []uint64 // capture cycles, ascending; cycles[0] == 0
	snaps    []*cpu.Snapshot
	bytes    uint64
	timeline *cpu.Timeline
}

// Record replays the golden run from cycle 0 and captures a snapshot at
// cycle 0 and then every interval cycles until the machine halts or
// goldenCycles is reached. An interval of 0 selects
// DefaultInterval(goldenCycles). The machine runs with delta tracking, so
// every capture after the first is chained to the one before it
// (cpu.Machine.SnapshotAfter) and owns only what changed in between. The
// same pass records the golden site timeline (cpu.Timeline), for which it
// runs on to the halt.
func Record(cfg cpu.Config, p *asm.Program, goldenCycles, interval uint64) *Store {
	if interval == 0 {
		interval = DefaultInterval(goldenCycles)
	}
	s := &Store{interval: interval}
	m := cpu.New(cfg, p)
	if goldenCycles < mem.MaxTimelineCycles {
		s.timeline = m.RecordTimeline()
	}
	m.BeginDeltaTracking()
	s.add(m.Snapshot(nil))
	for m.Cycle()+interval <= goldenCycles && m.Status() == cpu.StatusRunning {
		m.Run(cpu.RunOptions{
			StopAtCycle: m.Cycle() + interval,
			MaxCycles:   goldenCycles + 1,
		})
		if m.Status() != cpu.StatusRunning {
			break // halted (or crashed) before the next boundary
		}
		s.add(m.SnapshotAfter(s.snaps[len(s.snaps)-1]))
	}
	if s.timeline != nil {
		m.Run(cpu.RunOptions{MaxCycles: goldenCycles + 1})
		s.timeline.Seal()
	}
	return s
}

// Timeline returns the golden site timeline recorded with the checkpoints,
// nil for a run too long to index.
func (s *Store) Timeline() *cpu.Timeline { return s.timeline }

func (s *Store) add(snap *cpu.Snapshot) {
	s.cycles = append(s.cycles, snap.Cycle())
	s.snaps = append(s.snaps, snap)
	s.bytes += snap.Bytes()
}

// Seek returns the latest snapshot captured at or before cycle, plus the
// re-simulation distance (cycle minus the snapshot's cycle). The cycle-0
// snapshot guarantees a result for any cycle.
func (s *Store) Seek(cycle uint64) (snap *cpu.Snapshot, distance uint64) {
	// First index with cycles[i] > cycle; the predecessor is the answer.
	i := sort.Search(len(s.cycles), func(i int) bool { return s.cycles[i] > cycle })
	snap = s.snaps[i-1]
	return snap, cycle - s.cycles[i-1]
}

// Interval returns the checkpoint spacing in cycles.
func (s *Store) Interval() uint64 { return s.interval }

// Count returns the number of checkpoints held.
func (s *Store) Count() int { return len(s.snaps) }

// Bytes returns the storage the store owns: the sum of each checkpoint's
// own accounting, in which a chained capture counts only what it does not
// share with its predecessor.
func (s *Store) Bytes() uint64 { return s.bytes }

// Pool hands out scratch machines for fault runs and recycles them, so a
// campaign allocates roughly one machine per concurrently active worker
// rather than one per fault. Machines come back from Get positioned
// wherever their previous fault run left them; the caller must Restore a
// snapshot before use.
type Pool struct {
	cfg  cpu.Config
	prog *asm.Program
	pool sync.Pool
}

// NewPool builds a pool producing machines for cfg and prog.
func NewPool(cfg cpu.Config, p *asm.Program) *Pool {
	return &Pool{cfg: cfg, prog: p}
}

// Get returns a scratch machine, reporting whether it was recycled from a
// previous Put (reused=false means a fresh machine was allocated).
func (p *Pool) Get() (m *cpu.Machine, reused bool) {
	if v := p.pool.Get(); v != nil {
		return v.(*cpu.Machine), true
	}
	return cpu.New(p.cfg, p.prog), false
}

// Put returns a machine to the pool for reuse. Delta tracking is switched
// off so the next user never inherits a stale sync lineage.
func (p *Pool) Put(m *cpu.Machine) {
	m.SetSink(nil)
	m.EndDeltaTracking()
	p.pool.Put(m)
}
