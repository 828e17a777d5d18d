package cpu

import (
	"avgi/internal/isa"
	"avgi/internal/mem"
)

// operandReady reports whether an operand's value is available this cycle.
func (m *Machine) operandReady(op operand) bool {
	return !op.isReg || m.prfReadyAt[op.phys] <= m.cycle
}

// operandValue reads an operand (physical register or constant).
func (m *Machine) operandValue(op operand) uint64 {
	if op.isReg {
		return m.prf[op.phys] & m.Cfg.Variant.Mask()
	}
	return op.con & m.Cfg.Variant.Mask()
}

// issueStage selects up to IssueWidth ready instructions from the issue
// queue in program order and executes them. Branch mispredictions are
// resolved here with execute-time recovery.
func (m *Machine) issueStage() {
	issued := 0
	for i := 0; i < len(m.iq) && issued < m.Cfg.IssueWidth; i++ {
		idx := m.iq[i]
		e := m.robAt(idx)
		if !e.used || e.issued {
			// Stale IQ slot after a squash; drop it.
			m.iq = append(m.iq[:i], m.iq[i+1:]...)
			i--
			continue
		}
		if !m.operandReady(e.src[0]) || !m.operandReady(e.src[1]) {
			continue
		}
		ok, squashed := m.execute(idx, e)
		if !ok {
			continue // memory-ordering stall; retry next cycle
		}
		e.issued = true
		issued++
		m.iq = append(m.iq[:i], m.iq[i+1:]...)
		i--
		if squashed {
			// The IQ was rebuilt; indices beyond this point are
			// invalid.
			return
		}
	}
}

// execute performs one instruction. It returns ok=false if the instruction
// must retry later (load blocked by an unresolved older store), and
// squashed=true if a misprediction rewound the pipeline.
func (m *Machine) execute(idx int, e *robEntry) (ok, squashed bool) {
	v := m.Cfg.Variant
	a := m.operandValue(e.src[0])
	b := m.operandValue(e.src[1])
	if m.probe != nil {
		m.probe.onOperandRead(e)
	}
	lat := m.Cfg.LatALU

	switch e.class {
	case isa.ClassALU, isa.ClassMul:
		e.result = isa.EvalALU(e.inst.Op, a, b, v)
		switch e.inst.Op {
		case isa.OpMUL, isa.OpMULH:
			lat = m.Cfg.LatMul
		case isa.OpDIV, isa.OpREM:
			lat = m.Cfg.LatDiv
		}

	case isa.ClassLoad:
		return m.executeLoad(idx, e)

	case isa.ClassStore:
		vaddr := (a + uint64(int64(e.inst.Imm))) & v.Mask()
		size := isa.MemBytes(e.inst.Op)
		e.effAddr = vaddr
		e.result = b & sizeMask(size)
		if vaddr%size != 0 {
			e.exc = excAlign
		} else if _, _, fault := m.Mem.TranslateData(vaddr); fault != mem.FaultNone {
			e.exc = excPage
		}
		s := &m.sqs[e.sq]
		s.addr = vaddr
		s.size = size
		s.data = e.result
		s.known = true
		m.Stats.Stores++

	case isa.ClassBranch:
		taken := isa.BranchTaken(e.inst.Op, a, b, v)
		target := e.pc + uint64(int64(e.inst.Imm))*4
		m.Stats.Branches++
		// Update the bimodal predictor.
		bi := m.bpIndex(e.pc)
		m.bimTouched.Touch(bi)
		if taken {
			if m.bimodal[bi] < 3 {
				m.bimodal[bi]++
			}
		} else if m.bimodal[bi] > 0 {
			m.bimodal[bi]--
		}
		actualNext := e.pc + 4
		if taken {
			actualNext = target
		}
		predNext := e.pc + 4
		if e.predTaken {
			predNext = e.predTarget
		}
		e.done = true
		e.readyAt = m.cycle + lat
		if actualNext != predNext {
			m.Stats.Mispredicts++
			m.squashAfter(idx, actualNext)
			return true, true
		}
		return true, false

	case isa.ClassJump:
		e.result = (e.pc + 4) & v.Mask()
		if e.inst.Op == isa.OpJALR {
			target := (a + uint64(int64(e.inst.Imm))) & v.Mask() &^ uint64(3)
			bti := m.btbIndex(e.pc)
			m.btbTouched.Touch(bti)
			m.btb[bti] = target
			m.finishDest(e, lat)
			if target != e.predTarget {
				m.Stats.Mispredicts++
				m.squashAfter(idx, target)
				return true, true
			}
			return true, false
		}
		// JAL: target was computed at fetch; never mispredicts.
	}

	m.finishDest(e, lat)
	return true, false
}

// finishDest writes the result to the destination register (if any) and
// marks the entry complete after lat cycles.
func (m *Machine) finishDest(e *robEntry, lat uint64) {
	if e.hasDest {
		if m.probe != nil {
			m.probe.event(probeReg, int(e.destPhys), mem.ProbeOverwrite)
		}
		m.prf[e.destPhys] = e.result & m.Cfg.Variant.Mask()
		m.prfReadyAt[e.destPhys] = m.cycle + lat
	}
	e.done = true
	e.readyAt = m.cycle + lat
}

// executeLoad handles address generation, store-to-load forwarding and the
// cache access for a load. Conservative memory ordering: a load waits until
// every older store's address is known.
func (m *Machine) executeLoad(idx int, e *robEntry) (ok, squashed bool) {
	v := m.Cfg.Variant
	base := m.operandValue(e.src[0])
	vaddr := (base + uint64(int64(e.inst.Imm))) & v.Mask()
	size := isa.MemBytes(e.inst.Op)

	// A load that stalled on an unresolved older store stalls again, without
	// re-walking the queue, for as long as that store is unresolved: the
	// stores between the two were resolved and clear of this load when first
	// walked, none can join them (later stores are younger than the load),
	// and the load's address is fixed once its base register is ready. The
	// age test covers a slot that drained and was handed to a younger store
	// while older instructions kept this load from retrying.
	if e.sqWait != 0 {
		if s := &m.sqs[e.sqWait-1]; s.used && !s.known && s.seq <= e.seq {
			return false, false
		}
		e.sqWait = 0
	}

	// Scan older stores (youngest first) for forwarding or conflicts.
	var fwd *sqEntry
	for n, j := 0, m.sqTail; n < m.sqCnt; n++ {
		j = ringPrev(j, len(m.sqs))
		s := &m.sqs[j]
		if !s.used || s.seq > e.seq {
			continue
		}
		if !s.known {
			e.sqWait = uint16(j + 1)
			return false, false // unresolved older store: wait
		}
		if s.addr < vaddr+size && vaddr < s.addr+s.size {
			if s.addr == vaddr && s.size >= size {
				fwd = s
			} else {
				// Partial overlap: wait until the store drains.
				return false, false
			}
			break
		}
	}

	e.effAddr = vaddr
	l := &m.lqs[e.lq]
	l.addr = vaddr
	l.size = size
	l.known = true
	m.Stats.Loads++

	if vaddr%size != 0 {
		e.exc = excAlign
		e.done = true
		e.readyAt = m.cycle
		return true, false
	}

	var raw uint64
	lat := m.Cfg.LatALU
	if fwd != nil {
		raw = fwd.data & sizeMask(size)
		lat = 1
	} else {
		var fault mem.Fault
		raw, lat, fault = m.Mem.Load(vaddr, size)
		if fault != mem.FaultNone {
			e.exc = excPage
			e.done = true
			e.readyAt = m.cycle + lat
			return true, false
		}
		if lat == 0 {
			lat = 1
		}
	}
	e.result = extendLoad(e.inst.Op, raw, v)
	m.finishDest(e, lat)
	return true, false
}

// extendLoad applies the opcode's sign/zero extension to a raw loaded value.
func extendLoad(op isa.Op, raw uint64, v isa.Variant) uint64 {
	var x uint64
	switch op {
	case isa.OpLB:
		x = uint64(int64(int8(raw)))
	case isa.OpLH:
		x = uint64(int64(int16(raw)))
	case isa.OpLW:
		x = uint64(int64(int32(raw)))
	case isa.OpLBU, isa.OpLHU, isa.OpLWU, isa.OpLD:
		x = raw
	default:
		x = raw
	}
	return x & v.Mask()
}

func sizeMask(n uint64) uint64 {
	if n >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*n) - 1
}

// squashAfter discards every instruction younger than the entry at ROB
// index idx, undoing its rename effects by walking the ROB from the tail
// backwards, and redirects fetch to next.
func (m *Machine) squashAfter(idx int, next uint64) {
	bound := m.robAt(idx).seq
	for m.robCount > 0 {
		last := ringPrev(m.robTail, len(m.rob))
		e := m.robAt(last)
		if e.seq <= bound {
			break
		}
		if m.probe != nil {
			m.probe.event(probeROB, last, mem.ProbeSquash)
			if e.lq >= 0 {
				m.probe.event(probeLQ, e.lq, mem.ProbeSquash)
			}
			if e.sq >= 0 {
				m.probe.event(probeSQ, e.sq, mem.ProbeSquash)
			}
			if e.hasDest {
				m.probe.event(probeReg, int(e.destPhys), mem.ProbeFree)
			}
		}
		if e.hasDest {
			m.renameMap[e.destArch] = e.oldPhys
			m.freePush(e.destPhys)
		}
		if e.lq >= 0 {
			m.lqs[e.lq].used = false
			m.lqTail = e.lq
			m.lqCnt--
		}
		if e.sq >= 0 {
			m.sqs[e.sq].used = false
			m.sqTail = e.sq
			m.sqCnt--
		}
		e.used = false
		m.robTail = last
		m.robCount--
		m.Stats.Squashed++
	}
	// Rebuild the issue queue with surviving entries only.
	kept := m.iq[:0]
	for _, i := range m.iq {
		e := m.robAt(i)
		if e.used && e.seq <= bound && !e.issued {
			kept = append(kept, i)
		}
	}
	m.iq = kept
	// Reset the front end.
	m.fq = m.fq[:0]
	m.fetchPC = next
	m.fetchHalted = false
	m.fetchStallUntil = 0
}
