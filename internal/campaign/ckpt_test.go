package campaign

import (
	"testing"

	"avgi/internal/asm"
	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/imm"
	"avgi/internal/obs"
	"avgi/internal/trace"
)

// referenceRun is the obviously-right fault flow the cursor is proven
// against: one fresh mother machine advanced monotonically through the
// cycle-sorted list, a deep Clone() per fault, then the production
// inject/observe routine — serial, no checkpoint store, no pool, no delta
// sync, no chunking.
func referenceRun(r *Runner, faults []fault.Fault, mode Mode, ert uint64) []Result {
	mother := cpu.New(r.Cfg, r.Prog)
	var cmp trace.Comparator
	out := make([]Result, len(faults))
	for i, f := range faults {
		if mother.Cycle() < f.Cycle && mother.Status() == cpu.StatusRunning {
			mother.Run(cpu.RunOptions{StopAtCycle: f.Cycle, MaxCycles: r.Golden.Cycles + 1})
		}
		m := mother.Clone()
		out[i], _ = r.injectAndObserve(m, f, mode, ert, &cmp)
	}
	return out
}

// TestCursorDifferential is the correctness bar of the fork-path machinery
// at the campaign level: the same fault lists run through the production
// cursor path and the clone-per-fault reference must produce bit-identical
// results — IMM labels, final effects, manifestation latencies, simulated
// cycles and crash kinds — on a ≥500-fault RF+L1D campaign, on both machine
// variants.
func TestCursorDifferential(t *testing.T) {
	perStructure := 256
	if testing.Short() {
		perStructure = 40
	}
	for _, cfg := range []cpu.Config{cpu.ConfigA72(), cpu.ConfigA15()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			r := newTestRunner(t, cfg, "sha")
			for _, structure := range []string{"RF", "L1D (Data)"} {
				faults := r.FaultList(structure, perStructure, 7)
				want := referenceRun(r, faults, ModeExhaustive, 0)
				got := r.Run(faults, ModeExhaustive, 0, 4)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s fault %d diverged:\n  cursor    %+v\n  reference %+v",
							structure, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCursorDifferentialAVGIMode repeats the differential check under the
// windowed AVGI mode, whose early stops are the most timing-sensitive
// consumers of the restored state, and under exhaustive mode on the same
// faults.
func TestCursorDifferentialAVGIMode(t *testing.T) {
	r := shaRunner(t)
	for _, tc := range []struct {
		mode Mode
		ert  uint64
	}{
		{ModeAVGI, 2000},
		{ModeExhaustive, 0},
	} {
		faults := r.FaultList("RF", 60, 3)
		want := referenceRun(r, faults, tc.mode, tc.ert)
		got := r.Run(faults, tc.mode, tc.ert, 4)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v fault %d diverged: cursor %+v vs reference %+v",
					tc.mode, i, got[i], want[i])
			}
		}
	}
}

// TestCursorDifferentialResume proves the cursor path stays byte-identical
// to the reference across a journal-style resume: prior results covering a
// whole chunk, chunk heads and scattered mid-chunk faults are handed to
// RunCampaign, so cursor workers skip arbitrary faults inside their chunks,
// and every freshly simulated result must still equal the uninterrupted
// reference campaign's.
func TestCursorDifferentialResume(t *testing.T) {
	r := shaRunner(t)
	faults := r.FaultList("RF", 64, 11)
	want := referenceRun(r, faults, ModeAVGI, 2000)

	// 64 faults / 4 workers = 16-fault chunks: indices 0-15 cover chunk 0
	// entirely (a chunk with nothing fresh is skipped); i%5 scatters holes
	// through the remaining chunks.
	prior := make(map[int]Result)
	for i := range faults {
		if i < 16 || i%5 == 0 {
			prior[i] = want[i]
		}
	}
	resumed, _ := r.RunCampaign(RunSpec{Faults: faults, Mode: ModeAVGI, Window: 2000,
		Budget: NewBudget(4), Prior: prior})
	for i := range resumed {
		if resumed[i] != want[i] {
			t.Fatalf("fault %d diverged after resume: %+v vs reference %+v", i, resumed[i], want[i])
		}
	}
}

// livelockSrc counts to a bound held in a register: corrupting the bound
// upward makes the loop effectively infinite, which is exactly the hang
// class the runaway guard exists for.
const livelockSrc = `
	li r1, 0
	li r2, 64
loop:
	addi r1, r1, 1
	blt r1, r2, loop
	li r7, 0x40000
	storew r1, 0(r7)
	li r8, 0x3FFF8
	li r9, 8
	storew r9, 0(r8)
	halt
`

// TestRunawayLivelockTerminates proves the runaway guard bounds faulty
// runs: a register-file flip that raises the loop bound to ~2^62 livelocks
// the program, and the campaign still terminates, classifying the run as a
// crash after exactly RunawayLimit cycles.
func TestRunawayLivelockTerminates(t *testing.T) {
	cfg := cpu.ConfigA72()
	p, err := asm.Parse("livelock", livelockSrc, cfg.Variant)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(cfg, p)
	if err != nil {
		t.Fatal(err)
	}

	// Renaming decides which physical register holds the loop bound, so
	// sweep all of them, flipping a high-but-positive value bit. The
	// injection cycle matters too — the early cycles are cold-start fetch
	// misses with nothing renamed yet — so sweep several points across
	// the back half of the run, where the loop is in flight. Whichever
	// (cycle, register) combinations catch the live bound make it ~2^62,
	// and that run can only end via the runaway guard.
	width := r.BitCounts["RF"] / uint64(cfg.PhysRegs)
	var faults []fault.Fault
	for i, frac := range []uint64{2, 4, 8, 16} {
		cycle := r.Golden.Cycles - r.Golden.Cycles/frac
		for reg := 0; reg < cfg.PhysRegs; reg++ {
			faults = append(faults, fault.Fault{
				ID:        i*cfg.PhysRegs + reg,
				Structure: "RF",
				Bit:       uint64(reg)*width + width - 2,
				Cycle:     cycle,
			})
		}
	}
	results := r.Run(faults, ModeExhaustive, 0, 4)

	livelocked := 0
	for _, res := range results {
		budget := r.RunawayLimit() - res.Fault.Cycle
		if res.SimCycles > budget {
			t.Fatalf("fault %d ran %d cycles, past its %d budget", res.Fault.ID, res.SimCycles, budget)
		}
		if res.SimCycles == budget {
			livelocked++
			if res.Effect != imm.Crash {
				t.Errorf("runaway run classified %v, want crash", res.Effect)
			}
		}
	}
	if livelocked == 0 {
		t.Fatal("no fault livelocked; the guard was never exercised")
	}
}

func TestRunawayLimit(t *testing.T) {
	r := &Runner{Golden: Golden{Cycles: 1000}}
	if got := r.RunawayLimit(); got != 2*1000+100_000 {
		t.Errorf("limit = %d, want 2×golden + 100 000", got)
	}
}

func TestAssertTemporalRejectsOutOfPopulation(t *testing.T) {
	r := &Runner{Golden: Golden{Cycles: 100}}
	for _, bad := range []uint64{0, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cycle %d outside [1, 100] not rejected", bad)
				}
			}()
			r.assertTemporal([]fault.Fault{{ID: 1, Structure: "RF", Cycle: bad}})
		}()
	}
	// The boundary cycles are part of the population.
	r.assertTemporal([]fault.Fault{{Cycle: 1}, {Cycle: 100}})
}

// TestCkptMetricsPublished drives an observed campaign and checks the
// checkpoint-store gauges Configure publishes, and the pool and
// copy-on-write telemetry the campaign adds, land in the registry.
func TestCkptMetricsPublished(t *testing.T) {
	r := shaRunner(t)
	r.Configure(obs.New(nil), nil, false)

	const n = 32
	faults := r.FaultList("RF", n, 1)
	r.Run(faults, ModeExhaustive, 0, 4)

	lb := map[string]string{"structure": "RF", "workload": "sha", "mode": "exhaustive"}
	if got := r.Obs.Metrics.Counter("avgi_ckpt_cow_pages_total", "", lb).Value(); got == 0 {
		t.Error("cow_pages_total = 0; faulty runs never privatized a page")
	}

	pl := map[string]string{"workload": "sha", "mode": "exhaustive"}
	gets := r.Obs.Metrics.Counter("avgi_ckpt_pool_gets_total", "", pl).Value()
	if gets == 0 {
		t.Error("pool_gets_total = 0")
	}

	gl := map[string]string{"workload": "sha", "machine": r.Cfg.Name}
	if v := r.Obs.Metrics.Gauge("avgi_ckpt_checkpoints", "", gl).Value(); int(v) != r.store.Count() {
		t.Errorf("checkpoints gauge = %v, want %d", v, r.store.Count())
	}
	if v := r.Obs.Metrics.Gauge("avgi_ckpt_snapshot_bytes", "", gl).Value(); uint64(v) != r.store.Bytes() {
		t.Errorf("snapshot_bytes gauge = %v, want %d", v, r.store.Bytes())
	}
}
