package cpu

import (
	"avgi/internal/isa"
	"avgi/internal/mem"
)

const readyNever = ^uint64(0)

// bpIndex maps a PC to a bimodal predictor slot.
func (m *Machine) bpIndex(pc uint64) int {
	return int(pc>>2) & (len(m.bimodal) - 1)
}

// btbIndex maps a PC to a BTB slot (BTBEntries is a power of two).
func (m *Machine) btbIndex(pc uint64) int {
	return int(pc>>2) & (len(m.btb) - 1)
}

// decode decodes a fetched word; one that is still the program's own text
// (no L1I/L2/RAM fault changed it on the way) was decoded in New.
func (m *Machine) decode(pc uint64, word uint32) isa.Inst {
	if i := (pc - m.Prog.TextBase) / 4; i < uint64(len(m.Prog.Text)) && m.Prog.Text[i] == word {
		return (*m.text)[i]
	}
	return isa.Decode(word, m.Cfg.Variant)
}

// fetchStage fetches up to FetchWidth instruction words per cycle into the
// fetch queue, following predicted control flow. An instruction-cache miss
// stalls fetch until the line arrives.
func (m *Machine) fetchStage() {
	if m.fetchHalted || m.cycle < m.fetchStallUntil {
		return
	}
	hitLat, line := m.Cfg.Mem.L1I.HitLat, uint64(m.Cfg.Mem.L1I.LineBytes)
	for i := 0; i < m.Cfg.FetchWidth; i++ {
		if len(m.fq) >= m.Cfg.FetchQueue {
			return
		}
		pc := m.fetchPC
		if pc&(line-1) == 0 { // a cache's line size is a power of two
			// Entering a new line: the next-line prefetcher starts
			// on the following one.
			m.Mem.PrefetchI(pc + line)
		}
		word, lat, fault := m.Mem.FetchWord(pc)
		if fault != mem.FaultNone {
			exc := excPage
			if fault == mem.FaultAlign {
				exc = excAlign
			}
			m.fq = append(m.fq, fqEntry{pc: pc, readyAt: m.cycle + lat + 1, fetchExc: exc})
			m.fetchHalted = true
			return
		}
		inst := m.decode(pc, word)
		e := fqEntry{pc: pc, word: word, inst: inst, readyAt: m.cycle + lat}
		next := pc + 4
		switch isa.Classify(inst) {
		case isa.ClassBranch:
			if m.bimodal[m.bpIndex(pc)] >= 2 {
				e.predTaken = true
				e.predTarget = pc + uint64(int64(inst.Imm))*4
				next = e.predTarget
			}
		case isa.ClassJump:
			e.predTaken = true
			if inst.Op == isa.OpJAL {
				e.predTarget = pc + uint64(int64(inst.Imm))*4
			} else {
				// JALR: predict via the BTB; an empty slot
				// predicts fall-through and will mispredict.
				e.predTarget = m.btb[m.btbIndex(pc)]
				if e.predTarget == 0 {
					e.predTarget = pc + 4
				}
			}
			next = e.predTarget
		case isa.ClassHalt:
			m.fq = append(m.fq, e)
			m.fetchHalted = true
			return
		}
		m.fq = append(m.fq, e)
		m.fetchPC = next
		if lat > hitLat {
			// Miss: the remainder of the fetch group waits for the
			// fill.
			m.fetchStallUntil = m.cycle + lat
			return
		}
	}
}

// renameStage decodes, renames and dispatches up to DecodeWidth
// instructions from the fetch queue into the ROB, IQ and LQ/SQ.
func (m *Machine) renameStage() {
	n := 0
	for ; n < m.Cfg.DecodeWidth; n++ {
		if n == len(m.fq) || m.fq[n].readyAt > m.cycle {
			break
		}
		if m.robCount == len(m.rob) {
			break
		}
		fe := &m.fq[n]

		inst := fe.inst
		class := isa.Classify(inst)
		if fe.fetchExc != excNone {
			class = isa.ClassIllegal // routed through the exception path
		}

		needsIQ := class != isa.ClassNop && class != isa.ClassHalt && class != isa.ClassIllegal && fe.fetchExc == excNone
		if needsIQ && m.iqCount >= m.Cfg.IQSize {
			break
		}
		if class == isa.ClassLoad && m.lqCnt == len(m.lqs) {
			break
		}
		if class == isa.ClassStore && m.sqCnt == len(m.sqs) {
			break
		}
		hasDest := false
		var destArch uint8
		switch class {
		case isa.ClassALU, isa.ClassMul, isa.ClassLoad:
			hasDest = inst.Rd != 0
			destArch = inst.Rd
		case isa.ClassJump:
			hasDest = inst.Rd != 0
			destArch = inst.Rd
		}
		if hasDest && m.freeTop == 0 {
			break // no free physical register
		}

		idx := m.robTail
		e := m.robAt(idx)
		if m.probe != nil {
			m.probe.event(probeROB, idx, mem.ProbeOverwrite)
		}
		// Clear in place and store the fields: a composite literal is
		// built aside and copied in whole.
		*e = robEntry{}
		e.used = true
		e.seq = m.seqNext
		e.pc = fe.pc
		e.word = fe.word
		e.inst = inst
		e.class = class
		e.lq, e.sq = -1, -1
		m.seqNext++

		if fe.fetchExc != excNone {
			e.exc = fe.fetchExc
			e.done = true
			e.readyAt = m.cycle
		} else {
			switch class {
			case isa.ClassIllegal:
				e.exc = excIllegal
				e.done = true
				e.readyAt = m.cycle
			case isa.ClassNop, isa.ClassHalt:
				e.done = true
				e.readyAt = m.cycle
			default:
				m.renameOperands(e)
				e.predTaken = fe.predTaken
				e.predTarget = fe.predTarget
			}
		}

		if hasDest {
			e.hasDest = true
			e.destArch = destArch
			e.oldPhys = m.renameMap[destArch]
			newPhys := m.freePop()
			if m.probe != nil {
				m.probe.event(probeReg, int(newPhys), mem.ProbeAlloc)
			}
			e.destPhys = newPhys
			m.renameMap[destArch] = newPhys
			m.prfReadyAt[newPhys] = readyNever
		}

		if class == isa.ClassLoad {
			e.lq = m.lqTail
			if m.probe != nil {
				m.probe.event(probeLQ, m.lqTail, mem.ProbeOverwrite)
			}
			m.lqs[m.lqTail] = lqEntry{used: true, rob: idx, seq: e.seq}
			m.lqTail = ringNext(m.lqTail, len(m.lqs))
			m.lqCnt++
		}
		if class == isa.ClassStore {
			e.sq = m.sqTail
			if m.probe != nil {
				m.probe.event(probeSQ, m.sqTail, mem.ProbeOverwrite)
			}
			m.sqs[m.sqTail] = sqEntry{used: true, rob: idx, seq: e.seq}
			m.sqTail = ringNext(m.sqTail, len(m.sqs))
			m.sqCnt++
		}

		if needsIQ {
			m.iqInsert(idx, e)
		}

		m.robTail = ringNext(m.robTail, len(m.rob))
		m.robCount++
	}
	// Pop the n dispatched entries in place, one compaction per call:
	// re-slicing (fq = fq[1:]) gives capacity away, so fetchStage's append
	// would reallocate the queue every few cycles. cap(m.fq) stays
	// Cfg.FetchQueue for the life of the machine.
	m.fq = m.fq[:copy(m.fq, m.fq[n:])]
}

// renameOperands resolves an instruction's source operands into renamed
// physical registers or constants.
func (m *Machine) renameOperands(e *robEntry) {
	srcReg := func(r uint8) operand {
		if r == 0 {
			return operand{} // hard-wired zero
		}
		return operand{isReg: true, phys: m.renameMap[r]}
	}
	in := e.inst
	switch e.class {
	case isa.ClassALU, isa.ClassMul:
		switch isa.OpFormat(in.Op) {
		case isa.FmtR:
			e.src[0] = srcReg(in.Rs1)
			e.src[1] = srcReg(in.Rs2)
		case isa.FmtI:
			e.src[0] = srcReg(in.Rs1)
			e.src[1] = operand{con: immValue(in)}
		case isa.FmtU:
			e.src[0] = operand{}
			e.src[1] = operand{con: uint64(int64(in.Imm))}
		}
	case isa.ClassLoad:
		e.src[0] = srcReg(in.Rs1)
		e.src[1] = operand{con: uint64(int64(in.Imm))}
	case isa.ClassStore:
		e.src[0] = srcReg(in.Rs1) // base
		e.src[1] = srcReg(in.Rd)  // value register travels in the rd slot
	case isa.ClassBranch:
		e.src[0] = srcReg(in.Rd)  // first compare operand
		e.src[1] = srcReg(in.Rs1) // second compare operand
	case isa.ClassJump:
		if in.Op == isa.OpJALR {
			e.src[0] = srcReg(in.Rs1)
		}
	}
}

// immValue returns the operand value of an immediate under the opcode's
// extension rule (already applied by Decode; logical immediates decode
// non-negative).
func immValue(in isa.Inst) uint64 {
	return uint64(int64(in.Imm))
}

// freePop removes the top free physical register.
func (m *Machine) freePop() uint16 {
	m.freeTop--
	return m.freeList[m.freeTop]
}

// freePush returns a physical register to the free list.
func (m *Machine) freePush(p uint16) {
	m.freeList[m.freeTop] = p
	m.freeTop++
}
