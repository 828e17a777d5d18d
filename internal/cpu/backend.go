package cpu

import (
	"math/bits"

	"avgi/internal/isa"
	"avgi/internal/mem"
)

// operandValue reads an operand (physical register or constant).
func (m *Machine) operandValue(op operand) uint64 {
	if op.isReg {
		return m.prf[op.phys] & m.Cfg.Variant.Mask()
	}
	return op.con & m.Cfg.Variant.Mask()
}

// iqInsert enters the ROB entry at idx into the issue queue. A source
// register its producer has not written yet puts the entry on that
// register's waiter row; a written one folds the cycle it becomes readable
// into the entry's wake cycle. An entry reading one register twice waits on
// it once.
func (m *Machine) iqInsert(idx int, e *robEntry) {
	w, bit := idx>>6, uint64(1)<<(idx&63)
	m.iqMask[w] |= bit
	m.iqCount++
	for k := range e.src {
		op := &e.src[k]
		if !op.isReg || k == 1 && e.src[0].isReg && e.src[0].phys == op.phys { // one register read twice
			continue
		}
		if at := m.prfReadyAt[op.phys]; at == readyNever {
			m.waiters[int(op.phys)*len(m.iqMask)+w] |= bit
			e.pending++
		} else if at > e.readyAt {
			e.readyAt = at
		}
	}
	if e.pending == 0 {
		m.readyMask[w] |= bit
	}
}

// wake tells the entries waiting on register p that it becomes readable at
// cycle at: each folds the cycle into its wake cycle, one whose last pending
// source p was enters the ready mask, and p's waiter row empties.
func (m *Machine) wake(p uint16, at uint64) {
	n := len(m.iqMask)
	row := m.waiters[int(p)*n : int(p)*n+n]
	for w, set := range row {
		row[w] = 0
		for ; set != 0; set &= set - 1 {
			e := &m.rob[w<<6|bits.TrailingZeros64(set)]
			if at > e.readyAt {
				e.readyAt = at
			}
			if e.pending--; e.pending == 0 {
				m.readyMask[w] |= set & -set
			}
		}
	}
}

// iqRemove takes the entry at idx out of the issue queue and its masks: it
// issued, or a squash discarded it. A discarded entry leaves the waiter
// rows of the sources it still waits on; a pending source is one still
// unwritten, since a register's producer wakes its waiters when it writes
// it.
func (m *Machine) iqRemove(idx int, e *robEntry) {
	w, bit := idx>>6, uint64(1)<<(idx&63)
	m.iqMask[w] &^= bit
	m.readyMask[w] &^= bit
	m.parkedMask[w] &^= bit
	m.iqCount--
	if e.pending == 0 {
		return
	}
	for k := range e.src {
		if op := &e.src[k]; op.isReg && m.prfReadyAt[op.phys] == readyNever {
			m.waiters[int(op.phys)*len(m.iqMask)+w] &^= bit
		}
	}
}

// park moves the load at idx, stalled on the unresolved older store in SQ
// slot sqWait-1, from the ready mask to the parked mask. Until that store
// executes, every retry would stall at once on the same store having done
// nothing else (see executeLoad).
func (m *Machine) park(idx int) {
	w, bit := idx>>6, uint64(1)<<(idx&63)
	m.readyMask[w] &^= bit
	m.parkedMask[w] |= bit
}

// unpark returns the loads parked on the store in SQ slot sq, which has just
// resolved its address, to the ready mask. They are younger than the store,
// so the select reaches them later in the same cycle, as its retry would.
func (m *Machine) unpark(sq int) {
	for w, set := range m.parkedMask {
		for ; set != 0; set &= set - 1 {
			if int(m.rob[w<<6|bits.TrailingZeros64(set)].sqWait) == sq+1 {
				m.parkedMask[w] &^= set & -set
				m.readyMask[w] |= set & -set
			}
		}
	}
}

// issueStage selects up to IssueWidth instructions from the issue queue in
// program order and executes them. Wakeup and select are split: only an
// entry whose source registers are all written is in the ready mask, and
// it issues once its wake cycle has come, so the select never looks at an
// entry still waiting on a producer, nor at a load parked on an unresolved
// store. The ready mask is walked in ring order from the ROB head, which is
// program order, and reread after each entry, so a load an older store
// unparks is reached in the same cycle. Branch mispredictions are resolved
// here with execute-time recovery.
//
// A result written in cycle c is readable no earlier than c+1 (New rejects
// a zero execute latency), so an entry woken while the walk runs is never
// due in the same cycle, as with a walk over the whole queue.
//
// A parked load's retry only read its base register; with a probe armed the
// walk takes in the parked loads too and reports that read, in the same
// order a walk over the whole queue would.
func (m *Machine) issueStage() {
	n := len(m.readyMask)
	first, split := m.robHead>>6, m.robHead&63
	issued := 0
	for k := 0; k <= n; k++ {
		w := first + k
		if w >= n {
			w -= n
		}
		seg := ^uint64(0)
		switch k {
		case 0:
			seg <<= split
		case n:
			seg = 1<<split - 1
		}
		var b int
		for set := m.selectable(w) & seg; set != 0; set = m.selectable(w) & seg &^ (2<<b - 1) {
			b = bits.TrailingZeros64(set)
			idx := w<<6 | b
			e := m.robAt(idx)
			if m.probe != nil && m.parkedMask[w]&(1<<b) != 0 {
				m.probe.onOperandRead(e)
				continue
			}
			if e.readyAt > m.cycle {
				continue
			}
			ok, squashed := m.execute(idx, e)
			if !ok {
				if e.sqWait != 0 {
					m.park(idx)
				}
				continue // memory-ordering stall; retry next cycle
			}
			e.issued = true
			m.iqRemove(idx, e)
			if issued++; squashed || issued == m.Cfg.IssueWidth {
				return
			}
		}
	}
}

// selectable returns word w of the entries the select visits: the ready
// ones, and with a probe armed the parked ones.
func (m *Machine) selectable(w int) uint64 {
	if m.probe != nil {
		return m.readyMask[w] | m.parkedMask[w]
	}
	return m.readyMask[w]
}

// execute performs one instruction. It returns ok=false if the instruction
// must retry later (load blocked by an unresolved older store), and
// squashed=true if a misprediction rewound the pipeline.
func (m *Machine) execute(idx int, e *robEntry) (ok, squashed bool) {
	if m.probe != nil {
		m.probe.onOperandRead(e)
	}
	if e.class == isa.ClassLoad {
		return m.executeLoad(idx, e)
	}
	v := m.Cfg.Variant
	a := m.operandValue(e.src[0])
	b := m.operandValue(e.src[1])
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

	case isa.ClassStore:
		vaddr := (a + uint64(int64(e.inst.Imm))) & v.Mask()
		size := isa.MemBytes(e.inst.Op)
		e.effAddr = vaddr
		e.result = b & sizeMask(size)
		if vaddr&(size-1) != 0 { // size is 1, 2, 4 or 8
			e.exc = excAlign
		} else if _, _, fault := m.Mem.TranslateData(vaddr); fault != mem.FaultNone {
			e.exc = excPage
		}
		s := &m.sqs[e.sq]
		s.addr = vaddr
		s.size = size
		s.data = e.result
		s.known = true
		m.unpark(e.sq)
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
		m.wake(e.destPhys, m.cycle+lat)
	}
	e.done = true
	e.readyAt = m.cycle + lat
}

// executeLoad handles address generation, store-to-load forwarding and the
// cache access for a load. Conservative memory ordering: a load waits until
// every older store's address is known.
func (m *Machine) executeLoad(idx int, e *robEntry) (ok, squashed bool) {
	// A load that stalled on an unresolved older store stalls again, without
	// re-walking the queue, for as long as that store is unresolved: the
	// stores between the two were resolved and clear of this load when first
	// walked, none can join them (later stores are younger than the load),
	// and the load's address is fixed once its base register is ready. The
	// age test covers a slot that drained and was handed to a younger store
	// while older instructions kept this load from retrying. The issue stage
	// parks such a load until the store executes, so in the pipeline a retry
	// finds the store resolved; the check keeps a caller that retries every
	// cycle, like the walk the select is tested against, exact and cheap.
	if e.sqWait != 0 {
		if s := &m.sqs[e.sqWait-1]; s.used && !s.known && s.seq <= e.seq {
			return false, false
		}
		e.sqWait = 0
	}

	v := m.Cfg.Variant
	vaddr := (m.operandValue(e.src[0]) + uint64(int64(e.inst.Imm))) & v.Mask()
	size := isa.MemBytes(e.inst.Op)

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

	if vaddr&(size-1) != 0 { // size is 1, 2, 4 or 8
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
		if m.iqMask[last>>6]&(1<<(last&63)) != 0 {
			m.iqRemove(last, e)
		}
		e.used = false
		m.robTail = last
		m.robCount--
		m.Stats.Squashed++
	}
	// Reset the front end.
	m.fq = m.fq[:0]
	m.fetchPC = next
	m.fetchHalted = false
	m.fetchStallUntil = 0
}
