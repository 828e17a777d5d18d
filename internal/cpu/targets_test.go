package cpu

import (
	"strings"
	"testing"

	"avgi/internal/prog"
)

// TestStructureTableEdges holds every row of the fault-target table to the
// machine it names, at the edges of the array, on both machines and at
// several golden cycles: Target's bit count is the row's sites times bits
// per site; a flip at the first, a middle and the last bit moves FlipsArmed
// or FlipsMasked as Timeline.Fate's masked result predicts, and a probe armed
// there finds the site live exactly when Fate does; a two-bit flip across
// the last two sites watches both. Campaigns settle most faults through
// these lookups, so a row that misnamed its array or width would
// misclassify them without a deviation to show for it.
func TestStructureTableEdges(t *testing.T) {
	w, err := prog.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{ConfigA72(), ConfigA15()} {
		p := w.Build(cfg.Variant)
		rec := New(cfg, p)
		tl := rec.RecordTimeline()
		if res := rec.Run(RunOptions{MaxCycles: snapTestMaxCycles}); res.Status != StatusHalted {
			t.Fatalf("%s: golden run ended %v", cfg.Name, res.Status)
		}
		tl.Seal()
		end := rec.Cycle()
		golden := New(cfg, p)
		for _, cycle := range []uint64{1, end / 3, 2 * end / 3, end - 1} {
			golden.Run(RunOptions{StopAtCycle: cycle})
			for _, s := range structures {
				sites, bits := s.geometry(&cfg)
				total := uint64(sites) * bits
				name := cfg.Name + " " + s.Name
				if got := golden.Target(s.Name).BitCount(); got != total {
					t.Fatalf("%s: Target has %d bits, the row %d sites of %d", name, got, sites, bits)
				}
				for _, bit := range []uint64{0, total / 2, total - 1} {
					m := golden.Clone()
					before := m.Stats
					m.Target(s.Name).FlipBit(bit)
					live := m.ArmProbe(s.Name, bit, 1).Facts().LiveSites == 1
					fate, masked := tl.Fate(s.Name, bit, cycle, end)
					armed, maskedN := m.Stats.FlipsArmed-before.FlipsArmed, m.Stats.FlipsMasked-before.FlipsMasked
					if want := map[bool][2]uint64{false: {1, 0}, true: {0, 1}}[masked]; [2]uint64{armed, maskedN} != want {
						t.Errorf("%s bit %d at %d: %d armed, %d masked; Fate says masked=%v", name, bit, cycle, armed, maskedN, masked)
					}
					if live != fate.Live {
						t.Errorf("%s bit %d at %d: the probe finds live=%v, Fate %v", name, bit, cycle, live, fate.Live)
					}
				}
				m := golden.Clone()
				straddle := total - bits - 1
				m.Target(s.Name).FlipBit(straddle)
				m.Target(s.Name).FlipBit(straddle + 1)
				if got := m.ArmProbe(s.Name, straddle, 2).Facts().Sites; got != 2 {
					t.Errorf("%s at %d: a flip across the last two sites watches %d", name, cycle, got)
				}
			}
		}
	}
	for _, bad := range []string{"rf", "L1D", "L3 (Tag)", "c1/RF", "RF "} {
		if err := ValidateStructure(bad); err == nil || !strings.Contains(err.Error(), strings.Join(StructureNames, ", ")) {
			t.Errorf("ValidateStructure(%q) = %v, want an error listing the twelve", bad, err)
		}
	}
}
