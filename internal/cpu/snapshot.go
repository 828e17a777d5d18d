package cpu

import "avgi/internal/mem"

// Snapshot is an immutable capture of a machine's complete state, the fork
// primitive the campaign layer builds checkpoints from. A Snapshot captures
// core state into reusable buffers and RAM as a copy-on-write fork, and
// Restore rewinds an existing scratch machine in place — so a worker
// allocates one machine and reuses it for every fault.
//
// A snapshot is never mutated after Snapshot returns; any number of
// machines may Restore from it concurrently.
type Snapshot struct {
	// m is a value copy of the source machine with every slice field
	// replaced by a private deep copy and the Mem/sink/probe pointers
	// cleared. Holding the whole struct means scalar fields added to
	// Machine later are captured automatically.
	m    Machine
	mem  mem.HierarchySnap
	size uint64 // bytes of the last full capture, core arrays plus mem
}

// copyCore makes dst's core state equal to src's: a struct copy, so scalar
// fields added to Machine later travel automatically, with every state
// slice copied into dst's existing buffer at src's capacity (the one
// variable-length queue, fq, is born at Cfg.FetchQueue and never regrows)
// — a repeated capture or rewind allocates nothing. dst keeps its own Mem
// and its own delta-tracking lineage (the two dirty sets), which belong to
// the machine object rather than to the state it holds, and ends with no
// sink or probe (never outlives its faulty run).
// live is whichever of the two is the running machine. With delta set only
// the predictor entries live has written since its last sync point move;
// everything else churns within any fault window and is always copied
// whole. Either way the two are equal afterwards, so live's dirty sets
// restart empty. Returns the array bytes moved.
//
// This is the one place that lists Machine's state slices;
// TestCoreCopySharesNoBuffers fails when a new one is missing here.
func copyCore(dst, src, live *Machine, delta bool) uint64 {
	old := *dst
	*dst = *src
	dst.Mem = old.Mem
	dst.sink, dst.probe = nil, nil
	dst.bimTouched, dst.btbTouched = old.bimTouched, old.btbTouched

	var bim, btb *mem.DirtySet
	if delta {
		bim, btb = &live.bimTouched, &live.btbTouched
	}
	dst.bimodal, dst.btb = old.bimodal, old.btb
	n := mem.CopyRows(&dst.bimodal, src.bimodal, bim, 1) + mem.CopyRows(&dst.btb, src.btb, btb, 1)
	live.bimTouched.Reset()
	live.btbTouched.Reset()
	return n + own(&dst.prf, old.prf) + own(&dst.prfReadyAt, old.prfReadyAt) +
		own(&dst.renameMap, old.renameMap) + own(&dst.committedMap, old.committedMap) +
		own(&dst.freeList, old.freeList) + own(&dst.rob, old.rob) +
		own(&dst.iqMask, old.iqMask) + own(&dst.readyMask, old.readyMask) + own(&dst.parkedMask, old.parkedMask) +
		own(&dst.waiters, old.waiters) +
		own(&dst.lqs, old.lqs) + own(&dst.sqs, old.sqs) + own(&dst.fq, old.fq) +
		own(&dst.output, old.output)
}

// own replaces *field, which the struct copy left sharing the source's
// array, with a copy of it in buf's storage, or in fresh storage of the
// source's capacity the first time.
func own[T any](field *[]T, buf []T) uint64 {
	src := *field
	if cap(buf) != cap(src) {
		buf = make([]T, 0, cap(src))
	}
	*field = buf
	return mem.CopyRows(field, src, nil, 1)
}

// checkSync panics on the two misuses of the delta-sync pair: syncing a
// machine that is not tracking, or against a snapshot of another geometry.
func (m *Machine) checkSync(s *Snapshot, op string) {
	if !m.bimTouched.Tracking() {
		panic("cpu: " + op + " without BeginDeltaTracking")
	}
	if len(s.m.prf) != len(m.prf) || len(s.m.bimodal) != len(m.bimodal) {
		panic("cpu: " + op + " against a snapshot of another machine")
	}
}

// Snapshot captures the machine into s, reusing its buffers when non-nil,
// and returns it. The machine keeps running afterwards; its RAM privatizes
// pages copy-on-write as it diverges from the capture.
func (m *Machine) Snapshot(s *Snapshot) *Snapshot {
	if s == nil {
		s = &Snapshot{}
	}
	s.size = m.Mem.Snapshot(&s.mem).Bytes() + copyCore(&s.m, m, m, false)
	return s
}

// Restore rewinds the machine to a snapshot in place. The machine must
// share the snapshot's configuration (same geometry and program); memory
// restore panics otherwise. Object identity — the Mem hierarchy and the
// core's slice buffers — is preserved. The trace sink and probe are
// cleared; the caller installs fresh ones as needed.
func (m *Machine) Restore(s *Snapshot) {
	copyCore(m, &s.m, m, false)
	m.Mem.Restore(&s.mem)
}

// Clone returns an independent machine at m's cycle: a fresh machine
// restored from a snapshot of m. The capture is copy-on-write, so m's RAM
// pages become shared with the clone and each side privatizes a page before
// its next write to it. The capture is also a new sync point for m's delta
// tracking (its dirty sets restart empty), so a tracking m must not
// SyncSnapshot or SyncRestore against an older snapshot afterwards. The
// clone starts untracked, with no trace sink or probe.
func (m *Machine) Clone() *Machine {
	c := New(m.Cfg, m.Prog)
	c.Restore(m.Snapshot(nil))
	return c
}

// BeginDeltaTracking starts dirty-delta tracking across the whole machine
// — predictor arrays on the core side, caches and TLBs in the memory
// system — establishing the current state as a sync point. While tracking,
// SyncSnapshot/SyncRestore move only the delta touched since the last sync
// point instead of the whole machine image.
func (m *Machine) BeginDeltaTracking() {
	m.bimTouched.Begin(len(m.bimodal))
	m.btbTouched.Begin(len(m.btb))
	m.Mem.BeginDeltaTracking()
}

// EndDeltaTracking stops dirty-delta tracking everywhere (the fork pool
// calls this before recycling a machine so a later user is never handed a
// stale delta lineage).
func (m *Machine) EndDeltaTracking() {
	m.bimTouched.End()
	m.btbTouched.End()
	m.Mem.EndDeltaTracking()
}

// SyncSnapshot re-captures the machine into s copying only the dirty delta
// accumulated since the last sync point: touched predictor entries, cache
// sets and TLB entries, a copy-on-write RAM re-fork, and the (small,
// fully-churning) pipeline arrays. s must have been fully captured from
// this machine under the current tracking lineage — SyncSnapshot after a
// full Snapshot(s), or after a SyncSnapshot/SyncRestore against the same s.
// The result is bit-identical to a full Snapshot. Returns the bytes copied,
// for telemetry.
func (m *Machine) SyncSnapshot(s *Snapshot) uint64 {
	m.checkSync(s, "SyncSnapshot")
	return m.Mem.SyncSnapshot(&s.mem) + copyCore(&s.m, m, m, true)
}

// SyncRestore rewinds the machine to s copying only the dirty delta
// accumulated since the last sync point (see SyncSnapshot); bit-identical
// to a full Restore under the sync invariant. The trace sink is cleared.
// Returns the bytes copied, for telemetry.
func (m *Machine) SyncRestore(s *Snapshot) uint64 {
	m.checkSync(s, "SyncRestore")
	return m.Mem.SyncRestore(&s.mem) + copyCore(m, &s.m, m, true)
}

// Cycle returns the machine cycle at which the snapshot was captured.
func (s *Snapshot) Cycle() uint64 { return s.m.cycle }

// Bytes returns the captured state size in bytes — the core's copied
// arrays plus the memory snapshot's accounting — for checkpoint telemetry.
func (s *Snapshot) Bytes() uint64 { return s.size }
