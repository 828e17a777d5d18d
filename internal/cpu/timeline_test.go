package cpu

import (
	"testing"

	"avgi/internal/prog"
)

// TestTimelineCensusExact holds the census to Fate itself: on sha, on both
// machines, it must count every (site, cycle) of the four core arrays into
// exactly the outcome Fate gives it with the window ending at the halt —
// equal counts, not close ones — and decline every cache and TLB row.
func TestTimelineCensusExact(t *testing.T) {
	w, err := prog.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{ConfigA72(), ConfigA15()} {
		m := New(cfg, w.Build(cfg.Variant))
		tl := m.RecordTimeline()
		if res := m.Run(RunOptions{MaxCycles: snapTestMaxCycles}); res.Status != StatusHalted {
			t.Fatalf("%s: golden run ended %v", cfg.Name, res.Status)
		}
		tl.Seal()
		end := m.Cycle()
		for _, s := range structures {
			got, ok := tl.Census(s.Name, end)
			if ok != (s.kind == probeReg || s.Queue) {
				t.Errorf("%s %s: census ok=%v", cfg.Name, s.Name, ok)
			}
			if !ok {
				continue
			}
			var want Census
			sites, per := s.Geometry(&cfg)
			for site := uint64(0); site < uint64(sites); site++ {
				for c := uint64(1); c <= end; c++ {
					switch f, _ := tl.Fate(s.Name, site*per, c, end); {
					case !f.Live:
						want.Dead++
					case f.Cycle == 0:
						want.Untouched++
					case f.Erased():
						want.Erased++
					default:
						want.ReadFirst++
					}
				}
			}
			t.Logf("%s %-3s %+v", cfg.Name, s.Name, got)
			if got != want {
				t.Errorf("%s %s: census %+v, Fate at every (site, cycle) %+v", cfg.Name, s.Name, got, want)
			}
		}
	}
}
