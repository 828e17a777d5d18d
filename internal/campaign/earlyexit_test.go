package campaign

import (
	"reflect"
	"testing"

	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/forensics"
	"avgi/internal/imm"
	"avgi/internal/obs"
)

// stripSimCycles zeroes the one field the early exit legitimately changes:
// the simulated-cycle cost a resolved fault is charged. Every
// classification field must survive the strip untouched.
func stripSimCycles(r Result) Result {
	r.SimCycles = 0
	return r
}

// TestEarlyExitDifferential proves the early exit is
// classification-identical to full-ERT windows: for every fault, the
// early-exit run must agree with the full-window run on every Result field
// except SimCycles, and the campaign summaries (IMM distribution, AVF
// fractions) must match exactly. Runs all twelve structures over the
// benchmark grid's four programs plus crc32, so every site flavor —
// register, queue, cache data, cache tag, TLB — meets every kind of code.
func TestEarlyExitDifferential(t *testing.T) {
	exits := map[string]int{}
	for _, workload := range []string{"sha", "qsort", "rijndael", "cg", "crc32"} {
		r := newTestRunner(t, cpu.ConfigA72(), workload)
		for _, st := range cpu.StructureNames {
			faults := r.FaultList(st, 72, 11)
			r.EarlyExit = false
			full := r.Run(faults, ModeAVGI, 2000, 4)
			r.EarlyExit = true
			fast := r.Run(faults, ModeAVGI, 2000, 4)
			for i := range full {
				if stripSimCycles(fast[i]) != stripSimCycles(full[i]) {
					t.Fatalf("%s/%s fault %d (%s): early exit changed the classification:\n  full %+v\n  fast %+v",
						workload, st, i, faults[i], full[i], fast[i])
				}
				if fast[i].SimCycles > full[i].SimCycles {
					t.Errorf("%s/%s fault %d: early exit lengthened the window (%d > %d cycles)",
						workload, st, i, fast[i].SimCycles, full[i].SimCycles)
				}
				if fast[i].SimCycles < full[i].SimCycles {
					exits[st]++
				}
			}
			fs, ff := Summarize(fast), Summarize(full)
			if !reflect.DeepEqual(fs.ByIMM, ff.ByIMM) || fs.Corruptions != ff.Corruptions {
				t.Errorf("%s/%s: summaries diverged: %v vs %v", workload, st, fs.ByIMM, ff.ByIMM)
			}
			if !reflect.DeepEqual(fs.IMMFractions(), ff.IMMFractions()) {
				t.Errorf("%s/%s: IMM fractions diverged", workload, st)
			}
		}
	}
	// The early exit must actually shorten windows on the structures whose
	// masked faults are invalid entries and free registers, or this test
	// proves nothing about them.
	for _, st := range []string{"ITLB", "DTLB", "RF"} {
		if exits[st] == 0 {
			t.Errorf("no %s fault ended its window early across 5 workloads", st)
		}
	}
	t.Logf("early exits by structure: %v", exits)
}

// TestEarlyExitForensicsIdentical pins that the facts the golden site
// timeline writes for a resolved fault are the facts a probe over the full
// window records: once every site is dead and unread, no further probe event
// can fire, so the attribution must be bit-identical.
func TestEarlyExitForensicsIdentical(t *testing.T) {
	r := shaRunner(t)
	r.Forensics = forensics.NewExplorer()
	for _, st := range []string{"RF", "DTLB"} {
		faults := r.FaultList(st, 48, 7)
		r.EarlyExit = false
		full := r.Run(faults, ModeAVGI, 2000, 4)
		r.EarlyExit = true
		fast := r.Run(faults, ModeAVGI, 2000, 4)
		for i := range full {
			if !reflect.DeepEqual(full[i].Forensics, fast[i].Forensics) {
				t.Fatalf("%s fault %d: forensics diverged under early exit:\n  full %+v\n  fast %+v",
					st, i, full[i].Forensics, fast[i].Forensics)
			}
		}
	}
}

// TestEarlyExitJournalResume re-runs an early-exit campaign through the
// resume path with a partial prior-result map: resumed results must be
// byte-identical (SimCycles included) to the uninterrupted run, so a study
// journal written with -early-exit resumes without reclassification drift.
func TestEarlyExitJournalResume(t *testing.T) {
	r := shaRunner(t)
	r.EarlyExit = true
	faults := r.FaultList("RF", 64, 11)
	base := r.Run(faults, ModeAVGI, 2000, 4)

	// 64 faults / 4 workers = 16-fault chunks: indices 0-15 cover chunk 0
	// entirely (a chunk with nothing fresh is skipped); i%5 scatters holes
	// elsewhere.
	prior := make(map[int]Result)
	for i := range faults {
		if i < 16 || i%5 == 0 {
			prior[i] = base[i]
		}
	}
	resumed, _ := r.RunCampaign(RunSpec{Faults: faults, Mode: ModeAVGI, Window: 2000,
		Budget: NewBudget(4), Prior: prior})
	for i := range resumed {
		if resumed[i] != base[i] {
			t.Fatalf("fault %d diverged after resume: %+v vs %+v", i, resumed[i], base[i])
		}
	}
}

// TestAVGIWindowBoundary pins the faulty-window boundary on both machine
// variants: the window is [inject, inject+ert] inclusive, so a deviation
// landing exactly on the expiry cycle classifies as a deviation, while one
// cycle less of window makes the same fault Benign.
func TestAVGIWindowBoundary(t *testing.T) {
	for _, cfg := range []cpu.Config{cpu.ConfigA72(), cpu.ConfigA15()} {
		t.Run(cfg.Name, func(t *testing.T) {
			r := newTestRunner(t, cfg, "sha")
			faults := r.FaultList("RF", 200, 3)
			ex := r.Run(faults, ModeExhaustive, 0, 4)
			pick := -1
			for i, res := range ex {
				if res.Manifested && res.ManifestLatency >= 2 {
					pick = i
					break
				}
			}
			if pick < 0 {
				t.Fatal("no RF fault manifested with latency >= 2")
			}
			one := []fault.Fault{faults[pick]}
			lat := ex[pick].ManifestLatency
			for _, ee := range []bool{false, true} {
				r.EarlyExit = ee
				// ert = latency: the deviating commit lands exactly on the
				// window-expiry cycle and must still count.
				at := r.Run(one, ModeAVGI, lat, 1)[0]
				if !at.Manifested || at.ManifestLatency != lat {
					t.Errorf("early-exit=%v ert=%d: deviation on the expiry cycle dropped: %+v", ee, lat, at)
				}
				// One cycle short: the deviation is outside the window.
				before := r.Run(one, ModeAVGI, lat-1, 1)[0]
				if before.Manifested || before.IMM != imm.Benign {
					t.Errorf("early-exit=%v ert=%d: out-of-window deviation classified %v (manifested=%v)",
						ee, lat-1, before.IMM, before.Manifested)
				}
				// One cycle long: unambiguously inside.
				after := r.Run(one, ModeAVGI, lat+1, 1)[0]
				if !after.Manifested || after.ManifestLatency != lat {
					t.Errorf("early-exit=%v ert=%d: in-window deviation dropped: %+v", ee, lat+1, after)
				}
			}
		})
	}
}

// TestEarlyExitMetricsPublished asserts the golden site timeline's counters
// reach the metrics registry with the campaign's structure/workload/mode
// labels: the faults resolved dead and erased, and the window cycles their
// charges spared.
func TestEarlyExitMetricsPublished(t *testing.T) {
	r := shaRunner(t)
	r.Obs = obs.New(nil)
	r.EarlyExit = true
	faults := r.FaultList("RF", 64, 5)
	r.Run(faults, ModeAVGI, 2000, 4)

	// An exhaustive run's window is the rest of the program: its resolved
	// faults are counted too, and spare the cycles to the halt.
	r.Run(faults, ModeExhaustive, 0, 4)

	for _, mode := range []string{"avgi", "exhaustive"} {
		lb := map[string]string{"structure": "RF", "workload": "sha", "mode": mode}
		var settled uint64
		for _, fate := range []string{"dead", "erased"} {
			n := r.Obs.Metrics.Counter("avgi_window_resolved_total", "", map[string]string{
				"fate": fate, "structure": "RF", "workload": "sha", "mode": mode}).Value()
			if n == 0 {
				t.Errorf("%s: avgi_window_resolved_total{fate=%q} = 0 on an RF campaign", mode, fate)
			}
			settled += n
		}
		if saved := r.Obs.Metrics.Counter("avgi_window_cycles_saved_total", "", lb).Value(); saved == 0 {
			t.Errorf("%s: avgi_window_cycles_saved_total = 0 despite %d dead and erased faults", mode, settled)
		}
	}
}

// TestCursorBatchingSameCycle pins the same-cycle fault batch: when
// consecutive cursor faults share an injection cycle, one cycle-aligned
// snapshot serves the whole batch and every fault after the first counts
// as batched (no SyncSnapshot re-arm).
func TestCursorBatchingSameCycle(t *testing.T) {
	r := shaRunner(t)
	r.Obs = obs.New(nil)

	cyc := r.FaultList("RF", 1, 5)[0].Cycle
	faults := make([]fault.Fault, 6)
	for i := range faults {
		faults[i] = fault.Fault{ID: i, Structure: "RF", Bit: uint64(7*i + 1), Cycle: cyc}
	}
	// One worker, one chunk: fault 0 arms the snapshot, 1-5 batch on it.
	res := r.Run(faults, ModeAVGI, 500, 1)
	for i, rr := range res {
		if rr.Quarantined {
			t.Fatalf("fault %d quarantined: %s", i, rr.Err)
		}
	}
	lb := map[string]string{"structure": "RF", "workload": "sha", "mode": "avgi"}
	batched := r.Obs.Metrics.Counter("avgi_cursor_batched_faults_total", "", lb).Value()
	if batched != uint64(len(faults)-1) {
		t.Errorf("avgi_cursor_batched_faults_total = %d, want %d", batched, len(faults)-1)
	}
}
