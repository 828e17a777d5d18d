package cpu

import (
	"unsafe"

	"avgi/internal/mem"
)

// In-memory entry sizes, for snapshot byte accounting only.
const (
	robEntrySize = unsafe.Sizeof(robEntry{})
	lqEntrySize  = unsafe.Sizeof(lqEntry{})
	sqEntrySize  = unsafe.Sizeof(sqEntry{})
	fqEntrySize  = unsafe.Sizeof(fqEntry{})
)

// Snapshot is an immutable capture of a machine's complete state, the cheap
// half of the fork primitive the campaign layer builds checkpoints from.
// Where Clone allocates a whole independent machine per fork, a Snapshot
// captures core state into reusable buffers and RAM as a copy-on-write
// fork, and Restore rewinds an existing scratch machine in place — so a
// worker allocates one machine and reuses it for every fault.
//
// A snapshot is never mutated after Snapshot returns; any number of
// machines may Restore from it concurrently.
type Snapshot struct {
	// m is a value copy of the source machine with every slice field
	// replaced by a private deep copy and the Mem/sink/profile pointers
	// cleared. Holding the whole struct means scalar fields added to
	// Machine later are captured automatically.
	m   Machine
	mem mem.HierarchySnap
}

// copyCore makes dst's core state equal to src's: a struct copy, so scalar
// fields added to Machine later travel automatically, with every state
// slice copied into dst's existing buffer — a repeated capture or rewind
// allocates nothing beyond the rare fq regrowth. dst keeps its own Mem and
// its own delta-tracking lineage (flag, touch lists, marks), which belong
// to the machine object rather than to the state it holds, and ends with
// no sink, profile (a golden-run concern) or probe (never outlives its
// faulty run). With delta set the predictor arrays stay dst's own; the
// caller has already moved their touched entries with copyTouched.
//
// This and cloneCore are the only two places that list Machine's state
// slices; TestCoreCopySharesNoBuffers fails when a new one is in neither.
func copyCore(dst, src *Machine, delta bool) {
	old := *dst
	*dst = *src
	dst.Mem = old.Mem
	dst.sink, dst.profile, dst.probe = nil, nil, nil
	dst.deltaTrack = old.deltaTrack
	dst.bimTouched, dst.bimMarked = old.bimTouched, old.bimMarked
	dst.btbTouched, dst.btbMarked = old.btbTouched, old.btbMarked

	dst.prf = append(old.prf[:0], src.prf...)
	dst.prfReadyAt = append(old.prfReadyAt[:0], src.prfReadyAt...)
	dst.renameMap = append(old.renameMap[:0], src.renameMap...)
	dst.committedMap = append(old.committedMap[:0], src.committedMap...)
	dst.freeList = append(old.freeList[:0], src.freeList...)
	dst.rob = append(old.rob[:0], src.rob...)
	dst.iq = append(old.iq[:0], src.iq...)
	dst.lqs = append(old.lqs[:0], src.lqs...)
	dst.sqs = append(old.sqs[:0], src.sqs...)
	dst.fq = append(old.fq[:0], src.fq...)
	dst.output = append(old.output[:0], src.output...)
	if delta {
		dst.bimodal, dst.btb = old.bimodal, old.btb
	} else {
		dst.bimodal = append(old.bimodal[:0], src.bimodal...)
		dst.btb = append(old.btb[:0], src.btb...)
	}
}

// checkSync panics on the two misuses of the delta-sync pair: syncing a
// machine that is not tracking, or against a snapshot of another geometry.
func (m *Machine) checkSync(s *Snapshot, op string) {
	if !m.deltaTrack {
		panic("cpu: " + op + " without BeginDeltaTracking")
	}
	if len(s.m.prf) != len(m.prf) || len(s.m.bimodal) != len(m.bimodal) {
		panic("cpu: " + op + " against a snapshot of another machine")
	}
}

// copyTouched copies from src to dst the predictor entries m — the tracking
// machine, one of the two — has written since its last sync point, and
// returns the bytes moved.
func (m *Machine) copyTouched(dst, src *Machine) uint64 {
	for _, i := range m.bimTouched {
		dst.bimodal[i] = src.bimodal[i]
	}
	for _, i := range m.btbTouched {
		dst.btb[i] = src.btb[i]
	}
	return uint64(len(m.bimTouched)) + uint64(len(m.btbTouched))*8
}

// Snapshot captures the machine into s, reusing its buffers when non-nil,
// and returns it. The machine keeps running afterwards; its RAM privatizes
// pages copy-on-write as it diverges from the capture.
func (m *Machine) Snapshot(s *Snapshot) *Snapshot {
	if s == nil {
		s = &Snapshot{}
	}
	m.Mem.Snapshot(&s.mem)
	copyCore(&s.m, m, false)
	// A full capture leaves machine == snapshot: a fresh sync point.
	m.resetDeltaTouched()
	return s
}

// Restore rewinds the machine to a snapshot in place. The machine must
// share the snapshot's configuration (same geometry and program); memory
// restore panics otherwise. Object identity — the Mem hierarchy and the
// core's slice buffers — is preserved. The trace sink and output profile
// are cleared; the caller installs fresh ones as needed.
func (m *Machine) Restore(s *Snapshot) {
	copyCore(m, &s.m, false)
	m.Mem.Restore(&s.mem)
	// A full restore re-establishes machine == snapshot, so the delta
	// restarts empty from here.
	m.resetDeltaTouched()
}

// BeginDeltaTracking starts dirty-delta tracking across the whole machine
// — predictor arrays on the core side, caches and TLBs in the memory
// system — establishing the current state as a sync point. While tracking,
// SyncSnapshot/SyncRestore move only the delta touched since the last sync
// point instead of the whole machine image.
func (m *Machine) BeginDeltaTracking() {
	if m.bimMarked == nil {
		m.bimMarked = make([]bool, len(m.bimodal))
		m.btbMarked = make([]bool, len(m.btb))
	}
	m.resetDeltaTouched()
	m.deltaTrack = true
	m.Mem.BeginDeltaTracking()
}

// EndDeltaTracking stops dirty-delta tracking everywhere (the fork pool
// calls this before recycling a machine so a later user is never handed a
// stale delta lineage).
func (m *Machine) EndDeltaTracking() {
	if m.deltaTrack {
		m.resetDeltaTouched()
		m.deltaTrack = false
	}
	m.Mem.EndDeltaTracking()
}

func (m *Machine) touchBimodal(i int) {
	if !m.deltaTrack || m.bimMarked[i] {
		return
	}
	m.bimMarked[i] = true
	m.bimTouched = append(m.bimTouched, int32(i))
}

func (m *Machine) touchBTB(i int) {
	if !m.deltaTrack || m.btbMarked[i] {
		return
	}
	m.btbMarked[i] = true
	m.btbTouched = append(m.btbTouched, int32(i))
}

func (m *Machine) resetDeltaTouched() {
	for _, i := range m.bimTouched {
		m.bimMarked[i] = false
	}
	for _, i := range m.btbTouched {
		m.btbMarked[i] = false
	}
	m.bimTouched = m.bimTouched[:0]
	m.btbTouched = m.btbTouched[:0]
}

// clearDeltaTracking drops tracking state from a captured machine value so
// a snapshot never aliases the source machine's touch lists.
func (m *Machine) clearDeltaTracking() {
	m.deltaTrack = false
	m.bimTouched, m.bimMarked = nil, nil
	m.btbTouched, m.btbMarked = nil, nil
}

// coreSyncBytes is the byte volume of the always-copied core arrays, for
// delta accounting.
func (m *Machine) coreSyncBytes() uint64 {
	return uint64(len(m.prf))*8 + uint64(len(m.prfReadyAt))*8 +
		uint64(len(m.renameMap))*2 + uint64(len(m.committedMap))*2 +
		uint64(len(m.freeList))*2 +
		uint64(len(m.rob))*uint64(robEntrySize) +
		uint64(len(m.iq))*8 +
		uint64(len(m.lqs))*uint64(lqEntrySize) +
		uint64(len(m.sqs))*uint64(sqEntrySize) +
		uint64(len(m.fq))*uint64(fqEntrySize) +
		uint64(len(m.output))
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
	bytes := m.Mem.SyncSnapshot(&s.mem) + m.copyTouched(&s.m, m)
	copyCore(&s.m, m, true)
	m.resetDeltaTouched()
	return bytes + m.coreSyncBytes()
}

// SyncRestore rewinds the machine to s copying only the dirty delta
// accumulated since the last sync point (see SyncSnapshot); bit-identical
// to a full Restore under the sync invariant. The trace sink is cleared.
// Returns the bytes copied, for telemetry.
func (m *Machine) SyncRestore(s *Snapshot) uint64 {
	m.checkSync(s, "SyncRestore")
	bytes := m.Mem.SyncRestore(&s.mem) + m.copyTouched(m, &s.m)
	copyCore(m, &s.m, true)
	m.resetDeltaTouched()
	return bytes + m.coreSyncBytes()
}

// Cycle returns the machine cycle at which the snapshot was captured.
func (s *Snapshot) Cycle() uint64 { return s.m.cycle }

// Bytes returns the captured state size in bytes — the core's copied
// arrays plus the memory snapshot's accounting — for checkpoint telemetry.
func (s *Snapshot) Bytes() uint64 {
	return s.m.coreSyncBytes() + uint64(len(s.m.bimodal)) + uint64(len(s.m.btb))*8 + s.mem.Bytes()
}
