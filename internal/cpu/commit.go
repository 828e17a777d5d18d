package cpu

import (
	"avgi/internal/isa"
	"avgi/internal/mem"
	"avgi/internal/trace"
)

// commitStage retires up to CommitWidth completed instructions in program
// order, draining stores to memory, freeing rename resources, emitting
// commit-trace records and raising precise exceptions.
func (m *Machine) commitStage() {
	for n := 0; n < m.Cfg.CommitWidth; n++ {
		if m.robCount == 0 {
			return
		}
		e := m.robAt(m.robHead)
		if !e.done || e.readyAt > m.cycle {
			return
		}

		// Shadow integrity check: corrupted ROB/LQ/SQ control state
		// reaching commit is caught by the machine's internal
		// consistency assertions — the paper's pre-software crash
		// (PRE) path for deep-pipeline structures.
		if e.injected ||
			(e.lq >= 0 && m.lqs[e.lq].injected) ||
			(e.sq >= 0 && m.sqs[e.sq].injected) {
			m.crashNow(CrashMachineCheck)
			return
		}

		if e.exc != excNone {
			if e.exc == excIllegal {
				// The corrupted encoding became architecturally
				// visible: log it in the commit trace (so the
				// IMM classifier can see IRP/UNO deviations),
				// then take the undefined-instruction trap.
				m.emit(trace.Record{Cycle: m.cycle, PC: e.pc, Word: e.word})
				m.crashNow(CrashIllegal)
				return
			}
			if e.exc == excPage {
				m.crashNow(CrashPageFault)
			} else {
				m.crashNow(CrashAlignFault)
			}
			return
		}

		rec := trace.Record{Cycle: m.cycle, PC: e.pc, Word: e.word}

		switch e.class {
		case isa.ClassHalt:
			m.emit(rec)
			if m.status == StatusRunning {
				m.retire(e)
				m.halt()
			}
			return
		case isa.ClassStore:
			// Drain the store to memory at commit. The write
			// retranslates; a DTLB entry corrupted since execute
			// redirects the write exactly as hardware would.
			s := &m.sqs[e.sq]
			if _, fault := m.Mem.Store(s.addr, s.size, s.data); fault != mem.FaultNone {
				if fault == mem.FaultAlign {
					m.crashNow(CrashAlignFault)
				} else {
					m.crashNow(CrashPageFault)
				}
				return
			}
			rec.IsStore = true
			rec.Addr = s.addr
			rec.Value = s.data
		default:
			if e.hasDest {
				rec.HasDest = true
				rec.Dest = e.destArch
				// Read the physical register at commit time so
				// value corruption between writeback and commit
				// is architecturally visible (DCR).
				if m.probe != nil {
					m.probe.event(probeReg, int(e.destPhys), mem.ProbeRead)
				}
				rec.Value = m.prf[e.destPhys] & m.Cfg.Variant.Mask()
			}
		}

		m.retire(e)
		m.emit(rec)
		if m.status != StatusRunning {
			return
		}
	}
}

// retire frees the head entry's resources and advances the ROB head.
func (m *Machine) retire(e *robEntry) {
	if m.probe != nil {
		m.probe.onRetire(m.robHead, e)
	}
	if e.hasDest {
		m.committedMap[e.destArch] = e.destPhys
		m.freePush(e.oldPhys)
	}
	if e.lq >= 0 {
		m.lqs[e.lq].used = false
		m.lqHead = ringNext(m.lqHead, len(m.lqs))
		m.lqCnt--
	}
	if e.sq >= 0 {
		m.sqs[e.sq].used = false
		m.sqHead = ringNext(m.sqHead, len(m.sqs))
		m.sqCnt--
	}
	e.used = false
	m.robHead = ringNext(m.robHead, len(m.rob))
	m.robCount--
	m.Stats.Commits++
	m.lastCommitCycle = m.cycle
}

// emit delivers a record to the trace sink; a false return stops the run.
func (m *Machine) emit(rec trace.Record) {
	if m.sink == nil {
		return
	}
	if !m.sink.OnCommit(rec) {
		if m.status == StatusRunning {
			m.status = StatusStopped
		}
	}
}

// ArchReg returns the committed architectural value of register r, for
// tests and debugging.
func (m *Machine) ArchReg(r uint8) uint64 {
	if r == 0 {
		return 0
	}
	return m.prf[m.committedMap[r]] & m.Cfg.Variant.Mask()
}
