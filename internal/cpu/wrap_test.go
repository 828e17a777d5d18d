package cpu

import (
	"bytes"
	"reflect"
	"testing"

	"avgi/internal/asm"
	"avgi/internal/isa"
	"avgi/internal/prog"
	"avgi/internal/trace"
)

// tinyConfig is the A15 model with four-entry load, store and fetch queues,
// so every ring wraps within a few instructions.
func tinyConfig() Config {
	cfg := ConfigA15()
	cfg.LQSize, cfg.SQSize, cfg.FetchQueue = 4, 4, 4
	return cfg
}

// TestWrapAroundStoreForwarding drives the store-queue scan of executeLoad
// across the ring's wrap. Two stores commit first so the queue head sits
// at slot 2; two chained long divides then block commit while three stores
// to one address fill slots 2, 3 and — wrapped — 0, the last with an address
// that waits for the first divide. The load behind them must wait while that store is
// unresolved, then forward from it (the youngest older match, across the
// wrap) rather than from slots 2 or 3 or from the younger store in slot 1.
func TestWrapAroundStoreForwarding(t *testing.T) {
	cfg := tinyConfig()
	cfg.LatDiv = 1000
	b := asm.NewBuilder("wrap", cfg.Variant)
	buf := b.Reserve("buf", 64)
	b.Li(1, buf)
	b.Li(10, 7)
	b.Li(11, 1)
	b.Li(2, 0x11)
	b.Li(3, 0x22)
	b.Li(4, 0x33)
	b.Li(6, 0x44)
	b.Sw(10, 1, 8)  // slot 0, commits
	b.Sw(10, 1, 12) // slot 1, commits
	b.Div(12, 10, 11)
	b.Div(15, 12, 11) // blocks commit for another divide latency
	b.Sub(13, 12, 10) // 0, once the first divide completes
	b.Add(14, 1, 13)  // buf, once the first divide completes
	b.Sw(2, 1, 0)     // slot 2
	b.Sw(4, 1, 0)     // slot 3
	b.Sw(3, 14, 0)    // slot 0 again: address unresolved until the divide
	b.Lw(5, 1, 0)
	b.Sw(6, 1, 0) // slot 1 again: younger than the load
	b.Halt()
	m := New(cfg, b.MustAssemble())

	find := func(match func(e *robEntry) bool) *robEntry {
		for i := range m.rob {
			if e := &m.rob[i]; e.used && match(e) {
				return e
			}
		}
		return nil
	}
	waited := false
	for m.Status() == StatusRunning {
		m.Step()
		load := find(func(e *robEntry) bool { return e.class == isa.ClassLoad })
		if load == nil {
			continue
		}
		late := find(func(e *robEntry) bool { return e.class == isa.ClassStore && e.inst.Rd == 3 })
		if late != nil && !m.sqs[late.sq].known {
			if load.issued {
				t.Fatalf("cycle %d: the load issued past an unresolved older store", m.Cycle())
			}
			waited = waited || operandReady(m, load.src[0])
			continue
		}
		if !load.issued {
			continue
		}
		if late == nil || late.sq != 0 || m.sqHead != 2 || m.sqTail != 2 || m.sqCnt != 4 {
			t.Fatalf("cycle %d: the load issued with head %d tail %d count %d, want the wrapped 2/2/4",
				m.Cycle(), m.sqHead, m.sqTail, m.sqCnt)
		}
		if load.result != 0x22 || m.prfReadyAt[load.destPhys] != m.Cycle()+1 {
			t.Fatalf("load result %#x ready at +%d, want 0x22 forwarded in one cycle",
				load.result, m.prfReadyAt[load.destPhys]-m.Cycle())
		}
		break
	}
	if !waited {
		t.Error("the load never waited on the unresolved store")
	}
	if res := m.Run(RunOptions{MaxCycles: 100_000}); res.Status != StatusHalted || m.ArchReg(5) != 0x22 {
		t.Fatalf("status %v, r5 = %#x, want halted with 0x22", res.Status, m.ArchReg(5))
	}
	if got, _, _ := m.Mem.Load(buf, 4); got != 0x44 {
		t.Errorf("memory holds %#x after the stores drained, want the youngest 0x44", got)
	}
}

// TestLoadStallMemo pins the two halves of executeLoad's blocking-slot
// memo: while the remembered store is older and unresolved the load stalls
// without a walk, and a slot that drained and now holds a younger
// unresolved store (the load was kept from retrying in between) no longer
// blocks it — without the age test the load would wait on a store that may
// itself be waiting for the load's result.
func TestLoadStallMemo(t *testing.T) {
	b := asm.NewBuilder("memo", tinyConfig().Variant)
	b.Halt()
	m := New(tinyConfig(), b.MustAssemble())
	m.sqs[2] = sqEntry{used: true, seq: 3}
	m.sqHead, m.sqTail, m.sqCnt = 2, 3, 1
	m.lqs[0] = lqEntry{used: true, seq: 5}
	e := &m.rob[0]
	*e = robEntry{used: true, seq: 5, class: isa.ClassLoad, inst: isa.Inst{Op: isa.OpLW}, sq: -1}

	if ok, _ := m.executeLoad(0, e); ok || e.sqWait != 3 {
		t.Fatalf("ok=%v sqWait=%d: the load must stall on the older unresolved store in slot 2", ok, e.sqWait)
	}
	m.sqCnt = 0 // a walk would now find no store at all
	if ok, _ := m.executeLoad(0, e); ok {
		t.Fatal("the load re-walked the queue although its blocking store is still unresolved")
	}
	m.sqCnt = 1
	m.sqs[2].seq = 9
	if ok, _ := m.executeLoad(0, e); !ok || e.sqWait != 0 {
		t.Fatalf("ok=%v sqWait=%d: a younger store in the remembered slot must not block the load", ok, e.sqWait)
	}
}

// checkRings compares every ring's bookkeeping with the modulo-based
// definition: the tail is (head + count) mod size, exactly the slots from
// head up to the tail are in use, the fetch queue still lives in its
// configured buffer, and the issue queue's wakeup/select state matches its
// definition from the ROB and the register file (selectState).
func checkRings(t *testing.T, m *Machine) {
	t.Helper()
	ring := func(name string, head, tail, cnt, n int, used func(i int) bool) {
		if tail != (head+cnt)%n {
			t.Fatalf("cycle %d: %s tail %d, want (%d+%d)%%%d", m.Cycle(), name, tail, head, cnt, n)
		}
		for k := 0; k < n; k++ {
			if used((head+k)%n) != (k < cnt) {
				t.Fatalf("cycle %d: %s slot %d used=%v with head %d count %d", m.Cycle(), name, (head+k)%n, !(k < cnt), head, cnt)
			}
		}
	}
	ring("rob", m.robHead, m.robTail, m.robCount, len(m.rob), func(i int) bool { return m.rob[i].used })
	ring("lq", m.lqHead, m.lqTail, m.lqCnt, len(m.lqs), func(i int) bool { return m.lqs[i].used })
	ring("sq", m.sqHead, m.sqTail, m.sqCnt, len(m.sqs), func(i int) bool { return m.sqs[i].used })
	if cap(m.fq) != m.Cfg.FetchQueue {
		t.Fatalf("cycle %d: cap(fq) %d, want %d", m.Cycle(), cap(m.fq), m.Cfg.FetchQueue)
	}
	if err := selectState(m); err != nil {
		t.Fatalf("cycle %d: %v", m.Cycle(), err)
	}
}

// TestWrapAroundSquashAndSnapshot runs qsort on the tiny machine, checking
// the rings against their modulo definition after every cycle — squashes
// that land while a queue is wrapped included — and the fetched stream
// after each redirect. A snapshot taken mid-run with the store queue
// wrapped and a partly drained fetch queue must restore bit-identically.
func TestWrapAroundSquashAndSnapshot(t *testing.T) {
	cfg := tinyConfig()
	w, err := prog.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(cfg.Variant)

	m := New(cfg, p)
	var mTrace trace.Capture
	m.SetSink(&mTrace)
	var snap *Snapshot
	prefix, wrappedSquashes := 0, 0
	for m.Status() == StatusRunning {
		wrapped := m.sqCnt > 0 && m.sqTail <= m.sqHead || m.lqCnt > 0 && m.lqTail <= m.lqHead
		squashed, fqBefore := m.Stats.Squashed, len(m.fq)
		m.Step()
		checkRings(t, m)
		if m.Stats.Squashed != squashed {
			if wrapped {
				wrappedSquashes++
			}
			// The redirect emptied the fetch queue; what this cycle's
			// fetch put back is one sequential run from the new target.
			for i := 1; i < len(m.fq); i++ {
				if !m.fq[i-1].predTaken && m.fq[i].pc != m.fq[i-1].pc+4 {
					t.Fatalf("cycle %d: fetch queue not sequential after a squash", m.Cycle())
				}
			}
		}
		drained := len(m.fq) > 0 && len(m.fq) < fqBefore
		if snap == nil && m.Cycle() > 5000 && drained && m.sqCnt > 0 && m.sqTail <= m.sqHead {
			snap, prefix = m.Snapshot(nil), mTrace.Len()
		}
	}
	if wrappedSquashes == 0 || snap == nil {
		t.Fatalf("coverage: %d squashes with a wrapped queue, snapshot taken: %v", wrappedSquashes, snap != nil)
	}
	if m.Status() != StatusHalted || !bytes.Equal(m.Output(), w.Ref(cfg.Variant)) {
		t.Fatalf("status %v, output matches the reference model: %v", m.Status(), bytes.Equal(m.Output(), w.Ref(cfg.Variant)))
	}

	scratch := New(cfg, p)
	scratch.Run(RunOptions{StopAtCycle: 3000})
	scratch.Restore(snap)
	checkRings(t, scratch)
	if again := scratch.Snapshot(nil); !reflect.DeepEqual(&again.m, &snap.m) {
		t.Fatal("core state differs after Snapshot -> Restore -> Snapshot")
	}
	var sTrace trace.Capture
	scratch.SetSink(&sTrace)
	scratch.Run(RunOptions{MaxCycles: snapTestMaxCycles})
	if scratch.Cycle() != m.Cycle() || scratch.Stats != m.Stats || !bytes.Equal(scratch.Output(), m.Output()) {
		t.Errorf("restored run ended at cycle %d with %+v, want %d with %+v", scratch.Cycle(), scratch.Stats, m.Cycle(), m.Stats)
	}
	if !reflect.DeepEqual(sTrace.Records(), mTrace.Records()[prefix:]) {
		t.Error("restored run's commit trace differs from the source's tail")
	}
}
