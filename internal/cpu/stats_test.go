package cpu

import (
	"strings"
	"testing"

	"avgi/internal/asm"
)

func TestStatsReport(t *testing.T) {
	m, res := run(t, ConfigA72(), func(b *asm.Builder) {
		b.Li(1, 0x8000)
		b.Li(2, 42)
		b.StoreW(2, 1, 0)
		b.LoadW(3, 1, 0)
		b.Li(4, 0)
		b.Label("loop")
		b.Addi(4, 4, 1)
		b.Slti(5, 4, 10)
		b.Bne(5, 0, "loop")
		b.Halt()
	})
	if res.Status != StatusHalted {
		t.Fatal(res.Status)
	}
	rep := m.StatsReport()
	for _, want := range []string{"cycles", "commits", "IPC", "branches", "L1I", "L1D", "L2", "ITLB", "DTLB", "loads/stores"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	// The loop ran 10 branches; they must be counted.
	if m.Stats.Branches < 10 {
		t.Errorf("branches = %d", m.Stats.Branches)
	}
}

func TestOutputProfileSampling(t *testing.T) {
	cfg := ConfigA72()
	b := asm.NewBuilder("t", cfg.Variant)
	// Write output bytes early, then spin long enough for samples.
	b.Li(1, asm.DefaultOutBase)
	b.Li(2, 0xAB)
	for i := int32(0); i < 64; i++ {
		b.Sb(2, 1, i)
	}
	b.Li(3, asm.DefaultOutLenAddr)
	b.Li(4, 64)
	b.StoreW(4, 3, 0)
	b.Li(5, 0)
	b.Li(6, 3000)
	b.Label("spin")
	b.Addi(5, 5, 1)
	b.Blt(5, 6, "spin")
	b.Halt()
	p := b.MustAssemble()
	m := New(cfg, p)
	m.EnableOutputProfiling(p.OutLenAddr, p.RAMSize, 64)
	if res := m.Run(RunOptions{MaxCycles: 1_000_000}); res.Status != StatusHalted {
		t.Fatal(res.Status)
	}
	cycles, l1d, _ := m.OutputProfile("L1D (Data)")
	_, l2, _ := m.OutputProfile("L2 (Tag)")
	if len(cycles) == 0 || len(l1d) != len(cycles) || len(l2) != len(cycles) {
		t.Fatalf("profile shapes: %d %d %d", len(cycles), len(l1d), len(l2))
	}
	// The output line stays dirty through the spin: most samples after
	// the writes must see at least one dirty output line in L1D.
	dirtySamples := 0
	for _, n := range l1d {
		if n > 0 {
			dirtySamples++
		}
	}
	if dirtySamples < len(l1d)/2 {
		t.Errorf("dirty output visible in only %d/%d samples", dirtySamples, len(l1d))
	}
	// A clone must not inherit the profiling hook.
	c := m.Clone()
	if cc, _, _ := c.OutputProfile("L1D (Data)"); cc != nil {
		t.Error("clone inherited output profile")
	}
}
