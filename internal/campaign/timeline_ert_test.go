package campaign_test

import (
	"fmt"
	"testing"

	"avgi/internal/campaign"
	"avgi/internal/core"
	"avgi/internal/cpu"
	"avgi/internal/prog"
)

func windowsRunner(t *testing.T, workload string) *campaign.Runner {
	t.Helper()
	w, err := prog.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.ConfigA72()
	r, err := campaign.NewRunner(cfg, w.Build(cfg.Variant))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTimelineDifferentialWindows repeats TestTimelineDifferential with the
// windows the methodology itself uses: an Estimator's effective residency
// times, derived from HVF campaigns on two programs — a few hundred cycles
// for the register file, thousands for the caches, a share of the whole run
// for the queues — instead of the fixed 2000 cycles of the grid, so that
// windows which end with the program meet the timeline too.
func TestTimelineDifferentialWindows(t *testing.T) {
	if campaign.RaceEnabled {
		t.Skip("the HVF training campaigns take minutes under the race detector; TestTimelineDifferential runs there")
	}
	n := 72
	if testing.Short() {
		n = 24
	}
	data := map[string]map[string][]campaign.Result{}
	cycles := map[string]uint64{}
	for _, workload := range []string{"sha", "crc32"} {
		r := windowsRunner(t, workload)
		cycles[workload] = r.Golden.Cycles
		for _, st := range cpu.StructureNames {
			if data[st] == nil {
				data[st] = map[string][]campaign.Result{}
			}
			data[st][workload] = r.Run(r.FaultList(st, n, 5), campaign.ModeHVF, 0, 2)
		}
	}
	est := &core.Estimator{ERT: core.DeriveERT(data, cycles)}
	for _, workload := range []string{"sha", "qsort"} {
		r := windowsRunner(t, workload)
		for _, st := range cpu.StructureNames {
			window := est.WindowFor(st, r.Golden.Cycles)
			faults := r.FaultList(st, n, 11)
			r.EarlyExit = false
			full := r.Run(faults, campaign.ModeAVGI, window, 2)
			r.EarlyExit = true
			for _, workers := range []int{1, 2} {
				what := fmt.Sprintf("%s/%s window %d, %d workers", workload, st, window, workers)
				campaign.RequireCharged(t, what, r, campaign.ModeAVGI, window, faults, full, r.Run(faults, campaign.ModeAVGI, window, workers))
			}
			t.Logf("%s/%s: window %d cycles", workload, st, window)
		}
	}
}
