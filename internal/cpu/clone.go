package cpu

import "avgi/internal/mem"

// Clone deep-copies the machine's entire state — core and memory system —
// producing an independent machine positioned at the same cycle. Campaigns
// use this as the checkpoint mechanism: the golden run advances to each
// fault's injection cycle and forks a clone to inject into, which matches
// the checkpoint-based acceleration both the paper's baseline SFI flow and
// the AVGI flow share (Section IV.B).
//
// The trace sink is not cloned; the caller installs a fresh sink on the
// clone with SetSink.
func (m *Machine) Clone() *Machine {
	c := &Machine{}
	*c = *m
	c.Mem = m.Mem.Clone()
	c.sink = nil
	c.profile = nil // exposure profiling is a golden-run concern
	c.probe = nil   // fault probes never outlive their faulty run
	// A clone starts untracked.
	c.bimTouched, c.btbTouched = mem.DirtySet{}, mem.DirtySet{}

	c.prf = append([]uint64(nil), m.prf...)
	c.prfReadyAt = append([]uint64(nil), m.prfReadyAt...)
	c.renameMap = append([]uint16(nil), m.renameMap...)
	c.committedMap = append([]uint16(nil), m.committedMap...)
	c.freeList = append([]uint16(nil), m.freeList...)

	c.rob = append([]robEntry(nil), m.rob...)
	c.iq = append(make([]int, 0, cap(m.iq)), m.iq...) // the queues keep their capacity
	c.lqs = append([]lqEntry(nil), m.lqs...)
	c.sqs = append([]sqEntry(nil), m.sqs...)
	c.fq = append(make([]fqEntry, 0, cap(m.fq)), m.fq...)

	c.bimodal = append([]uint8(nil), m.bimodal...)
	c.btb = append([]uint64(nil), m.btb...)

	c.output = append([]byte(nil), m.output...)
	return c
}
