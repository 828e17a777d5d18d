package cpu

import (
	"bytes"
	"testing"

	"avgi/internal/asm"
	"avgi/internal/isa"
	"avgi/internal/prog"
	"avgi/internal/trace"
)

// run assembles with b, runs to completion on cfg and returns the machine
// and result.
func run(t *testing.T, cfg Config, build func(b *asm.Builder)) (*Machine, Result) {
	t.Helper()
	b := asm.NewBuilder("test", cfg.Variant)
	build(b)
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg, p)
	res := m.Run(RunOptions{MaxCycles: 2_000_000})
	return m, res
}

func configs() []Config { return []Config{ConfigA72(), ConfigA15()} }

func TestHaltImmediately(t *testing.T) {
	for _, cfg := range configs() {
		m, res := run(t, cfg, func(b *asm.Builder) { b.Halt() })
		if res.Status != StatusHalted {
			t.Fatalf("%s: status %v (crash %v)", cfg.Name, res.Status, res.Crash)
		}
		if m.Stats.Commits != 1 {
			t.Errorf("%s: commits = %d", cfg.Name, m.Stats.Commits)
		}
	}
}

func TestArithmetic(t *testing.T) {
	for _, cfg := range configs() {
		m, res := run(t, cfg, func(b *asm.Builder) {
			b.Li(1, 20)
			b.Li(2, 22)
			b.Add(3, 1, 2)     // 42
			b.Mul(4, 3, 3)     // 1764
			b.Div(5, 4, 3)     // 42
			b.Rem(6, 4, 5)     // 0
			b.Sub(7, 3, 1)     // 22
			b.Xori(8, 3, 0xFF) // 42^255 = 213
			b.Halt()
		})
		if res.Status != StatusHalted {
			t.Fatalf("%s: %v/%v", cfg.Name, res.Status, res.Crash)
		}
		want := map[uint8]uint64{3: 42, 4: 1764, 5: 42, 6: 0, 7: 22, 8: 213}
		for r, w := range want {
			if got := m.ArchReg(r); got != w {
				t.Errorf("%s: r%d = %d, want %d", cfg.Name, r, got, w)
			}
		}
	}
}

func TestZeroRegister(t *testing.T) {
	for _, cfg := range configs() {
		m, res := run(t, cfg, func(b *asm.Builder) {
			b.Li(1, 99)
			b.Addi(0, 1, 1) // writes to r0 are discarded
			b.Add(2, 0, 0)  // r2 = 0
			b.Halt()
		})
		if res.Status != StatusHalted {
			t.Fatalf("%s: %v", cfg.Name, res.Status)
		}
		if m.ArchReg(0) != 0 || m.ArchReg(2) != 0 {
			t.Errorf("%s: r0=%d r2=%d", cfg.Name, m.ArchReg(0), m.ArchReg(2))
		}
	}
}

func TestLoopSum(t *testing.T) {
	for _, cfg := range configs() {
		// sum 1..100 = 5050 with a backward branch.
		m, res := run(t, cfg, func(b *asm.Builder) {
			b.Li(1, 0)   // sum
			b.Li(2, 1)   // i
			b.Li(3, 100) // n
			b.Label("loop")
			b.Add(1, 1, 2)
			b.Addi(2, 2, 1)
			b.Bge(3, 2, "loop")
			b.Halt()
		})
		if res.Status != StatusHalted {
			t.Fatalf("%s: %v/%v", cfg.Name, res.Status, res.Crash)
		}
		if got := m.ArchReg(1); got != 5050 {
			t.Errorf("%s: sum = %d", cfg.Name, got)
		}
		if m.Stats.Mispredicts == 0 {
			t.Errorf("%s: expected at least one mispredict", cfg.Name)
		}
	}
}

func TestMemoryLoadsStores(t *testing.T) {
	for _, cfg := range configs() {
		m, res := run(t, cfg, func(b *asm.Builder) {
			arr := b.DataWords("arr", []uint64{10, 20, 30, 40})
			b.Li(1, arr)
			sh := b.WordShift()
			b.LoadW(2, 1, 0)
			b.LoadW(3, 1, 1<<sh)
			b.Add(4, 2, 3) // 30
			b.StoreW(4, 1, 3<<sh)
			b.LoadW(5, 1, 3<<sh) // forwarded or from cache: 30
			b.Sb(5, 1, 0)        // low byte 30 over value 10
			b.Lbu(6, 1, 0)       // 30
			b.Halt()
		})
		if res.Status != StatusHalted {
			t.Fatalf("%s: %v/%v", cfg.Name, res.Status, res.Crash)
		}
		if m.ArchReg(4) != 30 || m.ArchReg(5) != 30 || m.ArchReg(6) != 30 {
			t.Errorf("%s: r4=%d r5=%d r6=%d", cfg.Name, m.ArchReg(4), m.ArchReg(5), m.ArchReg(6))
		}
	}
}

func TestSignExtendingLoads(t *testing.T) {
	for _, cfg := range configs() {
		mask := cfg.Variant.Mask()
		m, res := run(t, cfg, func(b *asm.Builder) {
			b.DataBytes("x", []byte{0xFF, 0xFF, 0x80, 0x00, 0xFE, 0xFF, 0xFF, 0xFF})
			addr := b.DataAddr("x")
			b.Li(1, addr)
			b.Lb(2, 1, 0)  // -1
			b.Lbu(3, 1, 0) // 255
			b.Lh(4, 1, 0)  // -1
			b.Lhu(5, 1, 2) // 0x0080
			b.Lw(6, 1, 4)  // -2
			b.Halt()
		})
		if res.Status != StatusHalted {
			t.Fatalf("%s: %v", cfg.Name, res.Status)
		}
		if m.ArchReg(2) != mask {
			t.Errorf("%s: lb = %#x", cfg.Name, m.ArchReg(2))
		}
		if m.ArchReg(3) != 255 {
			t.Errorf("%s: lbu = %d", cfg.Name, m.ArchReg(3))
		}
		if m.ArchReg(4) != mask {
			t.Errorf("%s: lh = %#x", cfg.Name, m.ArchReg(4))
		}
		if m.ArchReg(5) != 0x80 {
			t.Errorf("%s: lhu = %#x", cfg.Name, m.ArchReg(5))
		}
		if m.ArchReg(6) != mask-1 {
			t.Errorf("%s: lw = %#x", cfg.Name, m.ArchReg(6))
		}
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	for _, cfg := range configs() {
		m, res := run(t, cfg, func(b *asm.Builder) {
			b.Li(1, 0x8000)
			b.Li(2, 0x1234)
			b.StoreW(2, 1, 0)
			b.LoadW(3, 1, 0) // should forward 0x1234
			b.Halt()
		})
		if res.Status != StatusHalted {
			t.Fatalf("%s: %v", cfg.Name, res.Status)
		}
		if m.ArchReg(3) != 0x1234 {
			t.Errorf("%s: forwarded %#x", cfg.Name, m.ArchReg(3))
		}
	}
}

func TestCallReturn(t *testing.T) {
	for _, cfg := range configs() {
		m, res := run(t, cfg, func(b *asm.Builder) {
			b.Li(1, 5)
			b.Call("double")
			b.Call("double")
			b.Halt()
			b.Label("double")
			b.Add(1, 1, 1)
			b.Ret()
		})
		if res.Status != StatusHalted {
			t.Fatalf("%s: %v/%v", cfg.Name, res.Status, res.Crash)
		}
		if m.ArchReg(1) != 20 {
			t.Errorf("%s: r1 = %d", cfg.Name, m.ArchReg(1))
		}
	}
}

func TestOutputDrain(t *testing.T) {
	for _, cfg := range configs() {
		_, res := run(t, cfg, func(b *asm.Builder) {
			b.Li(1, asm.DefaultOutBase)
			b.Li(2, 'h')
			b.Sb(2, 1, 0)
			b.Li(2, 'i')
			b.Sb(2, 1, 1)
			b.Li(3, asm.DefaultOutLenAddr)
			b.Li(4, 2)
			b.StoreW(4, 3, 0)
			b.Halt()
		})
		if res.Status != StatusHalted {
			t.Fatalf("%s: %v/%v", cfg.Name, res.Status, res.Crash)
		}
		if !bytes.Equal(res.Output, []byte("hi")) {
			t.Errorf("%s: output %q", cfg.Name, res.Output)
		}
	}
}

func TestIllegalInstructionCrash(t *testing.T) {
	cfg := ConfigA72()
	b := asm.NewBuilder("ill", cfg.Variant)
	b.Nop()
	p := b.MustAssemble()
	p.Text = append(p.Text, 0xEE<<24) // undefined opcode
	m := New(cfg, p)
	var cap trace.Capture
	m.SetSink(&cap)
	res := m.Run(RunOptions{MaxCycles: 100000})
	if res.Status != StatusCrashed || res.Crash != CrashIllegal {
		t.Fatalf("status %v crash %v", res.Status, res.Crash)
	}
	// The corrupted encoding must appear in the commit trace.
	last := cap.Records()[cap.Len()-1]
	if last.Word != 0xEE<<24 {
		t.Errorf("trace missing illegal word: %#x", last.Word)
	}
}

func TestPageFaultCrash(t *testing.T) {
	for _, cfg := range configs() {
		_, res := run(t, cfg, func(b *asm.Builder) {
			b.Li(1, 2<<20) // beyond 1 MiB RAM
			b.Lw(2, 1, 0)
			b.Halt()
		})
		if res.Status != StatusCrashed || res.Crash != CrashPageFault {
			t.Fatalf("%s: %v/%v", cfg.Name, res.Status, res.Crash)
		}
	}
}

func TestAlignFaultCrash(t *testing.T) {
	_, res := run(t, ConfigA72(), func(b *asm.Builder) {
		b.Li(1, 0x8001)
		b.Lw(2, 1, 0)
		b.Halt()
	})
	if res.Status != StatusCrashed || res.Crash != CrashAlignFault {
		t.Fatalf("%v/%v", res.Status, res.Crash)
	}
}

func TestWrongPathFaultIsSquashed(t *testing.T) {
	// A load behind a taken branch that would page-fault must never
	// crash the machine: it is squashed before commit.
	for _, cfg := range configs() {
		m, res := run(t, cfg, func(b *asm.Builder) {
			b.Li(1, 2<<20) // bogus address
			b.Li(2, 1)
			b.Label("top")
			b.Beq(2, 2, "skip") // always taken; predictor starts not-taken
			b.Lw(3, 1, 0)       // wrong-path page fault
			b.Label("skip")
			b.Halt()
		})
		if res.Status != StatusHalted {
			t.Fatalf("%s: wrong-path fault escaped: %v/%v", cfg.Name, res.Status, res.Crash)
		}
		if m.Stats.Squashed == 0 {
			t.Errorf("%s: expected squashed instructions", cfg.Name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	build := func(b *asm.Builder) {
		b.DataWords("arr", []uint64{7, 3, 9, 1, 8, 2, 6, 4})
		arr := b.DataAddr("arr")
		b.Li(1, arr)
		b.Li(2, 0) // sum
		b.Li(3, 0) // i
		b.Li(4, 8)
		sh := b.WordShift()
		b.Label("loop")
		b.Sll(5, 3, 0)
		b.Slli(5, 3, sh)
		b.Add(5, 5, 1)
		b.LoadW(6, 5, 0)
		b.Add(2, 2, 6)
		b.Addi(3, 3, 1)
		b.Blt(3, 4, "loop")
		b.Halt()
	}
	for _, cfg := range configs() {
		var cycles []uint64
		var commits []uint64
		for i := 0; i < 3; i++ {
			m, res := run(t, cfg, build)
			if res.Status != StatusHalted {
				t.Fatalf("%s: %v", cfg.Name, res.Status)
			}
			cycles = append(cycles, res.Cycles)
			commits = append(commits, m.Stats.Commits)
			if m.ArchReg(2) != 40 {
				t.Fatalf("%s: sum = %d", cfg.Name, m.ArchReg(2))
			}
		}
		if cycles[0] != cycles[1] || cycles[1] != cycles[2] {
			t.Errorf("%s: nondeterministic cycles %v", cfg.Name, cycles)
		}
		if commits[0] != commits[1] || commits[1] != commits[2] {
			t.Errorf("%s: nondeterministic commits %v", cfg.Name, commits)
		}
	}
}

func TestTraceCaptureAndCompare(t *testing.T) {
	cfg := ConfigA72()
	build := func(b *asm.Builder) {
		b.Li(1, 3)
		b.Li(2, 4)
		b.Add(3, 1, 2)
		b.Halt()
	}
	b := asm.NewBuilder("t", cfg.Variant)
	build(b)
	p := b.MustAssemble()

	m1 := New(cfg, p)
	var cap trace.Capture
	m1.SetSink(&cap)
	if res := m1.Run(RunOptions{}); res.Status != StatusHalted {
		t.Fatal(res.Status)
	}
	if cap.Len() == 0 {
		t.Fatal("no trace records")
	}

	m2 := New(cfg, p)
	cmp := &trace.Comparator{Golden: cap.Records()}
	m2.SetSink(cmp)
	if res := m2.Run(RunOptions{}); res.Status != StatusHalted {
		t.Fatal(res.Status)
	}
	if cmp.Dev.Kind != trace.DevNone {
		t.Fatalf("identical run deviated: %+v", cmp.Dev)
	}
}

// TestCloneMidRunConverges holds Clone to being an independent machine. A
// clone taken mid-run and its source each run to the reference halt with
// the reference's cycles, stats and output. A store that reaches RAM (on a
// page the two share copy-on-write) and flips across the L1D data array,
// made on either side, leave the other side's RAM and run untouched, while
// the side that made them sees them.
func TestCloneMidRunConverges(t *testing.T) {
	cfg := ConfigA72()
	w, err := prog.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(cfg.Variant)
	ref := New(cfg, p)
	refRes := ref.Run(RunOptions{})
	if refRes.Status != StatusHalted {
		t.Fatal(refRes.Status)
	}
	// matches runs m on to its end and reports whether it ended as ref did.
	matches := func(m *Machine) bool {
		res := m.Run(RunOptions{MaxCycles: 2 * refRes.Cycles})
		return res.Status == StatusHalted && res.Cycles == refRes.Cycles &&
			m.Stats == ref.Stats && bytes.Equal(m.Output(), ref.Output())
	}
	paused := func() *Machine {
		m := New(cfg, p)
		m.Run(RunOptions{StopAtCycle: refRes.Cycles / 2})
		if m.Status() != StatusRunning {
			t.Fatalf("paused machine status %v", m.Status())
		}
		return m
	}

	m := paused()
	c := m.Clone()
	if !matches(c) {
		t.Error("clone: did not end as the reference run")
	}
	if !matches(m) {
		t.Error("source after clone: did not end as the reference run")
	}

	// The last input word, which crc32 reads after the halfway point.
	addr := p.DataBase + uint64(len(p.Data)) - 8
	readRAM := func(m *Machine) []byte {
		buf := make([]byte, 8)
		m.Mem.RAM.ReadBlock(addr, buf)
		return buf
	}
	for _, cloneWrites := range []bool{true, false} {
		src := paused()
		writer, other, names := src.Clone(), src, [2]string{"clone", "source"}
		if !cloneWrites {
			writer, other, names = other, writer, [2]string{"source", "clone"}
		}
		before := readRAM(other)
		old, _, _ := writer.Mem.Load(addr, 8)
		writer.Mem.Store(addr, 8, ^old)
		writer.Mem.L1D.Flush()
		writer.Mem.L2.Flush()
		data := writer.Mem.L1D.DataArray()
		for i := uint64(0); i < data.BitCount(); i += 7 {
			data.FlipBit(i)
		}
		if got := readRAM(writer); bytes.Equal(got, before) {
			t.Errorf("%s: its own store did not reach its RAM", names[0])
		}
		if got := readRAM(other); !bytes.Equal(got, before) {
			t.Errorf("%s's store reached the %s's RAM: % x, want % x", names[0], names[1], got, before)
		}
		if matches(writer) {
			t.Errorf("%s: ended as the reference run despite its store and flips", names[0])
		}
		if !matches(other) {
			t.Errorf("%s: the %s's store and flips changed its run", names[1], names[0])
		}
	}
}

func TestWatchdogOnInfiniteLoop(t *testing.T) {
	cfg := ConfigA72()
	cfg.WatchdogCommitGap = 2000
	_, res := run(t, cfg, func(b *asm.Builder) {
		b.Label("spin")
		b.Jump("spin")
	})
	// An infinite loop commits forever, so the watchdog does not fire —
	// the cycle budget does.
	if res.Status != StatusCycleLimit {
		t.Fatalf("spin loop: %v/%v", res.Status, res.Crash)
	}
}

func TestTargetsComplete(t *testing.T) {
	for _, cfg := range configs() {
		b := asm.NewBuilder("t", cfg.Variant)
		b.Halt()
		m := New(cfg, b.MustAssemble())
		if len(StructureNames) != 12 {
			t.Fatalf("%d structures", len(StructureNames))
		}
		for _, name := range StructureNames {
			tg := m.Target(name)
			if tg == nil {
				t.Errorf("%s: missing target %q", cfg.Name, name)
				continue
			}
			if err := ValidateStructure(name); err != nil {
				t.Errorf("ValidateStructure(%q): %v", name, err)
			}
			if tg.BitCount() == 0 {
				t.Errorf("%s: target %q has zero bits", cfg.Name, name)
			}
			// Flipping any bit must not panic.
			tg.FlipBit(0)
			tg.FlipBit(tg.BitCount() - 1)
		}
		// A name validates exactly when it resolves: no prefix form exists.
		for _, bad := range []string{"nope", "RFX", "c0/RF", "c1/L2 (Tag)"} {
			if m.Target(bad) != nil {
				t.Errorf("unknown target %q should be nil", bad)
			}
			if err := ValidateStructure(bad); err == nil {
				t.Errorf("ValidateStructure(%q) accepted", bad)
			}
		}
	}
}

func TestPRFFlipChangesValue(t *testing.T) {
	cfg := ConfigA72()
	b := asm.NewBuilder("t", cfg.Variant)
	b.Li(1, 0)
	b.Halt()
	m := New(cfg, b.MustAssemble())
	w := uint64(cfg.Variant.Width())
	before := m.prf[3]
	m.Target("RF").FlipBit(3*w + 5)
	if m.prf[3] != before^(1<<5) {
		t.Error("PRF flip did not change the value bit")
	}
}

func TestStatusAndCrashStrings(t *testing.T) {
	for _, s := range []Status{StatusRunning, StatusHalted, StatusCrashed, StatusStopped, StatusCycleLimit, Status(99)} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
	for _, k := range []CrashKind{CrashNone, CrashMachineCheck, CrashIllegal, CrashPageFault, CrashAlignFault, CrashWatchdog, CrashKind(99)} {
		if k.String() == "" {
			t.Error("empty crash string")
		}
	}
}

func TestVariantMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b := asm.NewBuilder("t", isa.V32)
	b.Halt()
	New(ConfigA72(), b.MustAssemble())
}

func TestIPCIsReasonable(t *testing.T) {
	// The OoO core should sustain an IPC well above a strict in-order
	// single-issue machine on independent arithmetic.
	cfg := ConfigA72()
	m, res := run(t, cfg, func(b *asm.Builder) {
		b.Li(1, 1)
		b.Li(2, 2)
		b.Li(3, 3)
		b.Li(4, 4)
		for i := 0; i < 200; i++ {
			b.Add(5, 1, 2)
			b.Add(6, 2, 3)
			b.Add(7, 3, 4)
			b.Add(8, 1, 4)
		}
		b.Halt()
	})
	if res.Status != StatusHalted {
		t.Fatal(res.Status)
	}
	ipc := float64(m.Stats.Commits) / float64(res.Cycles)
	if ipc < 1.2 {
		t.Errorf("IPC = %.2f, expected OoO core above 1.2", ipc)
	}
}

// TestDecodeMemoMatchesDecode: fetch's decode answers from the table built
// in New only for a word that is still the program's own; a word an
// injected fault changed, and any pc outside the text, goes through
// isa.Decode — so the two never disagree.
func TestDecodeMemoMatchesDecode(t *testing.T) {
	for _, cfg := range configs() {
		b := asm.NewBuilder("t", cfg.Variant)
		b.Li(1, 0x12345)
		b.Lw(2, 1, 4)
		b.Bne(1, 2, "end")
		b.Mul(3, 1, 2)
		b.Label("end")
		b.Halt()
		p := b.MustAssemble()
		m := New(cfg, p)
		for i, w := range p.Text {
			pc := p.TextBase + uint64(i)*4
			for _, word := range []uint32{w, w ^ 1<<27, w ^ 1<<3, 0xEE << 24} {
				for _, at := range []uint64{pc, pc + 4, p.TextBase - 4, p.TextBase + uint64(len(p.Text))*4} {
					if got, want := m.decode(at, word), isa.Decode(word, cfg.Variant); got != want {
						t.Fatalf("%s: decode(%#x, %#x) = %+v, want %+v", cfg.Name, at, word, got, want)
					}
				}
			}
		}
	}
}

// TestBTBEntriesMustBePowerOfTwo: btbIndex masks, so New rejects a BTB
// size that a mask cannot index.
func TestBTBEntriesMustBePowerOfTwo(t *testing.T) {
	cfg := ConfigA72()
	cfg.BTBEntries = 96
	b := asm.NewBuilder("t", cfg.Variant)
	b.Halt()
	defer func() {
		if recover() == nil {
			t.Error("New accepted BTBEntries = 96")
		}
	}()
	New(cfg, b.MustAssemble())
}

// TestExecuteLatencyMustBePositive: the issue select reads a register no
// earlier than the cycle after the one that wrote it, so New rejects a zero
// execute latency, under which a consumer would issue in its producer's
// cycle.
func TestExecuteLatencyMustBePositive(t *testing.T) {
	for _, zero := range []func(*Config){
		func(c *Config) { c.LatALU = 0 },
		func(c *Config) { c.LatMul = 0 },
		func(c *Config) { c.LatDiv = 0 },
	} {
		for _, cfg := range configs() {
			zero(&cfg)
			b := asm.NewBuilder("t", cfg.Variant)
			b.Halt()
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: New accepted latencies ALU %d, Mul %d, Div %d", cfg.Name, cfg.LatALU, cfg.LatMul, cfg.LatDiv)
					}
				}()
				New(cfg, b.MustAssemble())
			}()
		}
	}
}
