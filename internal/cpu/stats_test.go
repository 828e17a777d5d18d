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
