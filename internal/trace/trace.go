// Package trace defines architectural commit-trace records, golden-trace
// capture, and the ordered comparison that detects the first deviation
// between a faulty run and the fault-free run. The first deviation — its
// position, kind and both records — is the raw material the IMM classifier
// (package imm) works from.
package trace

// Record captures the architecturally visible facts of one committed
// instruction: when it committed, where it came from, what it was, and what
// it did to architectural state. These are exactly the per-retirement
// parameters the paper's Fig. 2 classifier inspects: committed cycle,
// program counter, opcode, operand fields (via the raw instruction word),
// and register/memory contents.
//
// The 8-byte fields come first and the sub-word ones last, so the record
// packs into 40 bytes with no padding between fields; a golden trace holds
// one record per commit (TestRecordSize).
type Record struct {
	Cycle uint64
	PC    uint64

	// Value is the new contents of the destination register, or a store's
	// data; Addr is a store's effective address.
	Value uint64
	Addr  uint64

	Word uint32 // raw instruction word as fetched/decoded

	// HasDest marks instructions writing a destination register, Dest
	// naming it; IsStore marks stores.
	HasDest bool
	Dest    uint8
	IsStore bool
}

// Same reports whether two records are architecturally identical, including
// their timing.
func (r Record) Same(o Record) bool {
	return r == o
}

// SameIgnoringCycle reports whether two records are architecturally
// identical apart from the commit cycle (the ETE condition).
func (r Record) SameIgnoringCycle(o Record) bool {
	r.Cycle = 0
	o.Cycle = 0
	return r == o
}

// packed folds the record's sub-word fields (instruction word, destination
// register, flags) into one 64-bit lane so the whole record compares as
// five 8-byte words.
func (r *Record) packed() uint64 {
	w := uint64(r.Word) | uint64(r.Dest)<<32
	if r.HasDest {
		w |= 1 << 40
	}
	if r.IsStore {
		w |= 1 << 41
	}
	return w
}

// same8 is the word-stride equality check on the comparator's hot path:
// the five 64-bit lanes are XOR-folded into a single branch instead of a
// field-by-field comparison with one branch per field. Callers fall back
// to the field-granular checks only on mismatch, so the first-divergence
// classification (DevRecord vs DevCycle) is untouched.
func (r *Record) same8(g *Record) bool {
	return (r.Cycle^g.Cycle)|(r.PC^g.PC)|(r.Value^g.Value)|
		(r.Addr^g.Addr)|(r.packed()^g.packed()) == 0
}

// Sink receives commit records during simulation.
type Sink interface {
	// OnCommit is called for every committed instruction in order. If it
	// returns false the machine stops simulating (used by AVGI runs that
	// only need the first deviation).
	OnCommit(Record) bool
}

// Capture is a Sink that records the full commit trace (the golden run).
// It fills fixed blocks of captureBlock records, so a capture never copies
// or reallocates what it already holds.
type Capture struct {
	blocks [][]Record // every block allocated so far, each captureBlock long
	used   int        // blocks[:used] hold the trace
	cur    []Record   // blocks[used-1], sliced to the records it holds
}

// captureBlock is the size, in records, of one block of a Capture.
const captureBlock = 16 << 10

// OnCommit implements Sink.
func (c *Capture) OnCommit(r Record) bool {
	if len(c.cur) == cap(c.cur) {
		if c.used == len(c.blocks) {
			c.blocks = append(c.blocks, make([]Record, captureBlock))
		}
		c.cur = c.blocks[c.used][:0]
		c.used++
	}
	c.cur = append(c.cur, r)
	return true
}

// Len returns the number of records captured.
func (c *Capture) Len() int {
	if c.used == 0 {
		return 0
	}
	return (c.used-1)*captureBlock + len(c.cur)
}

// Records returns the captured trace as one slice, joined into a single
// allocation of exact size that shares nothing with the capture.
func (c *Capture) Records() []Record {
	if c.used == 0 {
		return nil
	}
	out := make([]Record, 0, c.Len())
	for _, b := range c.blocks[:c.used-1] {
		out = append(out, b...)
	}
	return append(out, c.cur...)
}

// Reset empties the capture for another run, keeping its blocks.
func (c *Capture) Reset() { c.used, c.cur = 0, nil }

// DeviationKind describes how a faulty record first diverged from golden.
type DeviationKind uint8

const (
	// DevNone means no deviation was observed.
	DevNone DeviationKind = iota
	// DevRecord means the record differs in PC, instruction word,
	// destination, value or address.
	DevRecord
	// DevCycle means the record matches but committed in a different
	// cycle.
	DevCycle
	// DevExtra means the faulty run committed more instructions than the
	// golden run (ran past the golden halt).
	DevExtra
)

// Deviation describes the first difference between a faulty commit stream
// and the golden trace.
type Deviation struct {
	Kind   DeviationKind
	Index  int    // commit index at which the deviation occurred
	Cycle  uint64 // faulty commit cycle of the deviating record
	Golden Record
	Faulty Record
}

// Comparator is a Sink that compares a faulty run's commits against a
// golden trace on the fly. It records the first deviation; Stop controls
// whether simulation halts at that point (AVGI mode) or continues to the end
// of the program (AVF mode, where the final output comparison still needs
// the run to finish).
type Comparator struct {
	Golden []Record
	// StopAtFirst makes OnCommit return false on the first deviation.
	StopAtFirst bool
	// StopCycle, when non-zero, stops the run at the first commit from a
	// cycle strictly beyond it with no deviation found (the
	// effective-residency-time stop). The observation window is
	// [inject, StopCycle] inclusive: every commit at or before StopCycle
	// is examined, including later commits of the boundary cycle itself.
	StopCycle uint64

	// Dev is the first deviation found, if any.
	Dev Deviation

	next    int
	stopped bool
}

// OnCommit implements Sink.
func (c *Comparator) OnCommit(r Record) bool {
	if c.Dev.Kind == DevNone {
		// Window expiry is decided before the record is examined, with
		// strict inequality: the observation window is [inject, StopCycle]
		// inclusive, so a deviation committing exactly at StopCycle is
		// still a deviation, and only a commit from a strictly later cycle
		// ends the run clean. (The old post-classification `>=` check let
		// a matching commit at StopCycle stop the run before a deviating
		// commit of the same cycle behind it was ever inspected, and
		// conversely counted a deviation arriving strictly after the
		// window as in-window.)
		if c.StopCycle > 0 && r.Cycle > c.StopCycle {
			c.stopped = true
			return false
		}
		if c.next >= len(c.Golden) {
			c.Dev = Deviation{Kind: DevExtra, Index: c.next, Cycle: r.Cycle, Faulty: r}
		} else if g := &c.Golden[c.next]; !r.same8(g) {
			if r.SameIgnoringCycle(*g) {
				c.Dev = Deviation{Kind: DevCycle, Index: c.next, Cycle: r.Cycle, Golden: *g, Faulty: r}
			} else {
				c.Dev = Deviation{Kind: DevRecord, Index: c.next, Cycle: r.Cycle, Golden: *g, Faulty: r}
			}
		}
		if c.Dev.Kind != DevNone && c.StopAtFirst {
			c.stopped = true
			return false
		}
	}
	c.next++
	return true
}

// Reset rearms the comparator for a new faulty run against the same golden
// trace: stop conditions, the recorded deviation and the position are
// cleared, the Golden slice is kept. Campaign workers reuse one comparator
// across all their faults instead of allocating one per fault.
func (c *Comparator) Reset() {
	c.StopAtFirst = false
	c.StopCycle = 0
	c.Dev = Deviation{}
	c.next = 0
	c.stopped = false
}

// StartAt positions the comparator at commit index n. Campaigns use this
// when a faulty run is forked from a checkpoint that has already committed
// n instructions: the deterministic pre-injection prefix is known to match
// the golden trace.
func (c *Comparator) StartAt(n int) { c.next = n }

// Stopped reports whether the comparator asked the machine to stop early.
func (c *Comparator) Stopped() bool { return c.stopped }

// Commits returns the number of records observed so far.
func (c *Comparator) Commits() int { return c.next }
