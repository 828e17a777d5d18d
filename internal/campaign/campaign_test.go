package campaign

import (
	"reflect"
	"sync"
	"testing"

	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/imm"
	"avgi/internal/prog"
)

func shaRunner(t *testing.T) *Runner {
	t.Helper()
	w, err := prog.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.ConfigA72()
	r, err := NewRunner(cfg, w.Build(cfg.Variant))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestGoldenRun(t *testing.T) {
	r := shaRunner(t)
	if r.Golden.Cycles == 0 || r.Golden.Commits == 0 {
		t.Fatal("empty golden run")
	}
	if len(r.Golden.Trace) != int(r.Golden.Commits) {
		t.Errorf("trace %d records, commits %d", len(r.Golden.Trace), r.Golden.Commits)
	}
	if len(r.Golden.Output) != 20 {
		t.Errorf("sha output %d bytes", len(r.Golden.Output))
	}
	if len(r.BitCounts) != 12 {
		t.Errorf("bit counts for %d structures", len(r.BitCounts))
	}
}

// TestNewRunnerComplete checks that NewRunner returns with the checkpoint
// store, the golden site timeline and the fork pool in place, so campaigns
// only read the runner: two concurrent campaigns on a fresh runner (under
// -race, the check that nothing is still recorded lazily) equal serial ones.
func TestNewRunnerComplete(t *testing.T) {
	r := shaRunner(t)
	if r.store == nil || r.pool == nil || r.Timeline() == nil {
		t.Fatalf("fresh runner: store %v, pool %v, timeline %v", r.store, r.pool, r.Timeline())
	}
	r.EarlyExit = true
	faults := [2][]fault.Fault{r.FaultList("RF", 24, 1), r.FaultList("L1D (Data)", 24, 1)}
	var got [2][]Result
	var wg sync.WaitGroup
	for i := range faults {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = r.RunCampaign(RunSpec{Faults: faults[i], Mode: ModeAVGI, Window: 2000, Budget: NewBudget(2)})
		}()
	}
	wg.Wait()
	for i := range faults {
		if want := r.Run(faults[i], ModeAVGI, 2000, 1); !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: concurrent campaign differs from a serial one", faults[i][0].Structure)
		}
	}
}

func TestFaultListUsesGoldenCycles(t *testing.T) {
	r := shaRunner(t)
	fs := r.FaultList("RF", 50, 1)
	if len(fs) != 50 {
		t.Fatalf("%d faults", len(fs))
	}
	for _, f := range fs {
		if f.Cycle > r.Golden.Cycles {
			t.Fatalf("fault cycle %d beyond golden %d", f.Cycle, r.Golden.Cycles)
		}
		if f.Bit >= r.BitCounts["RF"] {
			t.Fatalf("bit %d out of range", f.Bit)
		}
	}
}

func TestExhaustiveCampaignRF(t *testing.T) {
	r := shaRunner(t)
	fs := r.FaultList("RF", 60, 1)
	results := r.Run(fs, ModeExhaustive, 0, 4)
	s := Summarize(results)
	if s.Total != 60 {
		t.Fatalf("total %d", s.Total)
	}
	// Every exhaustive result must carry a final effect, and the effect
	// partition must cover all faults.
	if s.ByEffect[imm.Masked]+s.ByEffect[imm.SDC]+s.ByEffect[imm.Crash] != 60 {
		t.Errorf("effects don't partition: %v", s.ByEffect)
	}
	// Register-file faults on a small working set should be masked more
	// often than not, and at least one should be benign (free phys reg).
	if s.ByIMM[imm.Benign] == 0 {
		t.Error("expected some benign faults in the PRF")
	}
	// PRF corruptions should be dominated by DCR per Section III.B.
	if s.Corruptions > 5 && s.ByIMM[imm.DCR] == 0 {
		t.Errorf("no DCR among %d PRF corruptions: %v", s.Corruptions, s.ByIMM)
	}
	for _, res := range results {
		if !res.HasEffect {
			t.Fatal("exhaustive result without effect")
		}
		if res.Manifested && res.ManifestLatency == 0 {
			t.Error("manifested with zero latency")
		}
	}
}

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	r := shaRunner(t)
	fs := r.FaultList("RF", 40, 2)
	a := r.Run(fs, ModeExhaustive, 0, 1)
	b := r.Run(fs, ModeExhaustive, 0, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs across worker counts:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestHVFStopsEarlierThanExhaustive(t *testing.T) {
	r := shaRunner(t)
	fs := r.FaultList("RF", 40, 3)
	ex := Summarize(r.Run(fs, ModeExhaustive, 0, 0))
	hv := Summarize(r.Run(fs, ModeHVF, 0, 0))
	if hv.SimCycles > ex.SimCycles {
		t.Errorf("HVF simulated more cycles (%d) than exhaustive (%d)", hv.SimCycles, ex.SimCycles)
	}
	// The IMM distribution over corruptions must be identical: stopping
	// at the first deviation does not change what the deviation was.
	for _, c := range imm.Classes {
		if hv.ByIMM[c] != ex.ByIMM[c] && c != imm.ESC && c != imm.Benign {
			t.Errorf("IMM %v differs: hvf %d vs exhaustive %d", c, hv.ByIMM[c], ex.ByIMM[c])
		}
	}
}

func TestAVGIWindowCutsBenignCost(t *testing.T) {
	r := shaRunner(t)
	fs := r.FaultList("RF", 40, 4)
	hv := Summarize(r.Run(fs, ModeHVF, 0, 0))
	av := Summarize(r.Run(fs, ModeAVGI, 2000, 0))
	if av.SimCycles >= hv.SimCycles {
		t.Errorf("AVGI (%d cycles) should be cheaper than HVF (%d)", av.SimCycles, hv.SimCycles)
	}
	// Benign faults must cost at most the window.
	for _, res := range r.Run(fs, ModeAVGI, 2000, 0) {
		if res.IMM == imm.Benign && res.SimCycles > 2000+uint64(r.Cfg.WatchdogCommitGap) {
			t.Errorf("benign fault simulated %d cycles with a 2000-cycle window", res.SimCycles)
		}
	}
}

func TestROBFaultsManifestAsPREOrBenign(t *testing.T) {
	r := shaRunner(t)
	for _, structure := range []string{"ROB", "LQ", "SQ"} {
		fs := r.FaultList(structure, 30, 5)
		s := Summarize(r.Run(fs, ModeExhaustive, 0, 0))
		for _, c := range imm.Classes {
			if c != imm.PRE && s.ByIMM[c] != 0 {
				t.Errorf("%s: unexpected IMM %v x%d (want only PRE/Benign)", structure, c, s.ByIMM[c])
			}
		}
		if s.ByIMM[imm.PRE]+s.ByIMM[imm.Benign] != s.Total {
			t.Errorf("%s: PRE+Benign != total: %v", structure, s.ByIMM)
		}
	}
}

func TestSummaryFractions(t *testing.T) {
	results := []Result{
		{IMM: imm.DCR, Effect: imm.SDC, HasEffect: true},
		{IMM: imm.DCR, Effect: imm.Masked, HasEffect: true},
		{IMM: imm.Benign, Effect: imm.Masked, HasEffect: true},
		{IMM: imm.ESC, Effect: imm.SDC, HasEffect: true},
	}
	s := Summarize(results)
	if s.Corruptions != 2 || s.Benign != 2 {
		t.Errorf("corruptions %d benign %d", s.Corruptions, s.Benign)
	}
	fr := s.IMMFractions()
	if fr[imm.DCR] != 1.0 {
		t.Errorf("DCR fraction %f", fr[imm.DCR])
	}
	if _, ok := fr[imm.ESC]; ok {
		t.Error("ESC must not appear in commit-trace IMM fractions")
	}
	ef := s.EffectFractions()
	if ef[imm.SDC] != 0.5 || ef[imm.Masked] != 0.5 {
		t.Errorf("effect fractions %v", ef)
	}
}

func TestModeString(t *testing.T) {
	if ModeExhaustive.String() != "exhaustive" || ModeHVF.String() != "hvf" || ModeAVGI.String() != "avgi" {
		t.Error("mode strings")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode")
	}
}

func TestEmptyRun(t *testing.T) {
	r := shaRunner(t)
	if len(r.Run(nil, ModeExhaustive, 0, 4)) != 0 {
		t.Error("empty fault list should return empty results")
	}
}
