package campaign

import (
	"runtime"
	"runtime/debug"
	"testing"

	"avgi/internal/cpu"
)

// Per-fault allocation budgets of the production path (Runner.Run, one
// worker), the marginal cost of a fault once the campaign's fixed set-up
// (results slice, worker, pooled machine, local snapshot) is paid. An AVGI
// fault allocates the target, the probe and the two per-Run engines (a
// ticker list and a stats slice each); an exhaustive fault adds the drained
// output of a run that halts. Before the fetch queue stopped regrowing these
// were 98.5 KB and 3.3 MB.
const (
	avgiFaultAllocBytes       = 2 << 10
	exhaustiveFaultAllocBytes = 32 << 10
)

// TestAllocPerFault measures the marginal allocation of a fault as the
// difference between a 2n-fault and an n-fault campaign, in the steady state:
// the garbage collector is off from the warm-up on, so the pooled cursor
// machine survives into both runs and no GC between them can charge a fresh
// machine to the difference.
func TestAllocPerFault(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := newTestRunner(t, cpu.ConfigA72(), "sha")
	r.EarlyExit = true
	const n = 48
	faults := r.FaultList("RF", 2*n, 1)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r.Run(faults, ModeAVGI, 2000, 1) // records the checkpoint store, fills the pool

	allocated := func(mode Mode, k int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.Run(faults[:k], mode, 2000, 1)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, tc := range []struct {
		mode  Mode
		limit uint64
	}{{ModeAVGI, avgiFaultAllocBytes}, {ModeExhaustive, exhaustiveFaultAllocBytes}} {
		small, large := allocated(tc.mode, n), allocated(tc.mode, 2*n)
		if perFault := (int64(large) - int64(small)) / n; perFault > int64(tc.limit) {
			t.Errorf("%v: %d bytes allocated per fault (%d for %d faults, %d for %d), want <= %d",
				tc.mode, perFault, small, n, large, 2*n, tc.limit)
		}
	}
}
