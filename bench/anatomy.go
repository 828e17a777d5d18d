package main

import (
	"bytes"
	"fmt"
	"time"

	"avgi/internal/campaign"
	"avgi/internal/ckpt"
	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/imm"
	"avgi/internal/trace"
)

// anatomyPairs are the three chunks the replay splits: an early-exit
// register file, a cache data array, and a TLB that runs full windows.
var anatomyPairs = []struct{ structure, program string }{
	{"RF", "sha"},
	{"L1D (Data)", "qsort"},
	{"DTLB", "rijndael"},
}

// anatomySeed fixes the replay's (and the primitives') fault lists so that
// their simulated counts repeat exactly whatever -seed is.
const anatomySeed = 1

// replayTotals accumulates the simulated counts of the replay.
type replayTotals struct {
	faults, earlyExits          int
	windowCycles, advanceCycles uint64
	cowPages                    uint64
	replayWall, runWall         time.Duration
	quarantined                 int
	mismatches                  int
}

// replayChunk re-enacts the campaign package's cursor flow for one chunk
// of faults using exported calls only, one span per step, and returns what
// it classified. It must stay a line-for-line mirror of
// campaign.(*worker).runCursor and (*Runner).injectAndObserve for ModeAVGI
// with EarlyExit; anatomy checks every result against Runner.Run so a
// drift shows as a failed output check, not as a wrong number.
func replayChunk(e *env, r *campaign.Runner, store *ckpt.Store, pool *ckpt.Pool,
	faults []fault.Fault, id string, tot *replayTotals) []campaign.Result {
	out := make([]campaign.Result, len(faults))
	cmp := trace.Comparator{Golden: r.Golden.Trace}
	var m *cpu.Machine
	var csnap *cpu.Snapshot
	step := func(name string, parent int, fn func()) {
		h := e.rec.begin(name, id, parent)
		fn()
		e.rec.end(h)
	}
	for i, f := range faults {
		root := e.rec.begin("campaign.fault", id, -1)
		if m == nil {
			step("ckpt.seek_restore", root, func() {
				m, _ = pool.Get()
				snap, _ := store.Seek(f.Cycle)
				m.Restore(snap)
				m.BeginDeltaTracking()
			})
		}
		var adv uint64
		step("cpu.advance", root, func() {
			if m.Cycle() < f.Cycle && m.Status() == cpu.StatusRunning {
				c0 := m.Cycle()
				m.Run(cpu.RunOptions{StopAtCycle: f.Cycle, MaxCycles: r.Golden.Cycles + 1})
				adv = m.Cycle() - c0
			}
		})
		step("cpu.sync_snapshot", root, func() {
			switch {
			case csnap == nil:
				csnap = m.Snapshot(nil)
			case adv != 0:
				m.SyncSnapshot(csnap)
			}
		})
		cowBase := m.Mem.RAM.CowPrivatized()

		var res cpu.Result
		var probe *cpu.FaultProbe
		step("campaign.window", root, func() {
			tg := m.Target(f.Structure)
			width := uint64(f.Bits())
			for b := uint64(0); b < width; b++ {
				tg.FlipBit(f.Bit + b)
			}
			if probe = m.ArmProbe(f.Structure, f.Bit, int(width)); probe != nil {
				probe.EnableConvergenceStop()
			}
			cmp.Reset()
			cmp.StartAt(int(m.Stats.Commits))
			cmp.StopAtFirst = true
			cmp.StopCycle = f.Cycle + gridWindow
			m.SetSink(&cmp)
			res = m.Run(cpu.RunOptions{MaxCycles: r.RunawayLimit()})
		})

		step("imm.classify", root, func() {
			o := campaign.Result{Fault: f, SimCycles: res.Cycles - f.Cycle, Crash: res.Crash,
				Runaway: res.Status == cpu.StatusCycleLimit}
			crashed := res.Status == cpu.StatusCrashed || res.Status == cpu.StatusCycleLimit
			produced := res.Status == cpu.StatusHalted
			matches := produced && bytes.Equal(res.Output, r.Golden.Output)
			switch {
			case cmp.Dev.Kind != trace.DevNone:
				o.Manifested = true
				if cmp.Dev.Cycle > f.Cycle {
					o.ManifestLatency = cmp.Dev.Cycle - f.Cycle
				}
				o.IMM = imm.Classify(imm.Inputs{Dev: cmp.Dev, Variant: r.Cfg.Variant})
			case res.Status == cpu.StatusStopped:
				o.IMM = imm.Benign
			default:
				o.IMM = imm.Classify(imm.Inputs{Crashed: crashed, OutputProduced: produced, OutputMatches: matches})
				if o.IMM == imm.PRE {
					o.Manifested = true
					o.ManifestLatency = res.Cycles - f.Cycle
				}
			}
			out[i] = o
		})
		if res.Status == cpu.StatusStopped && !cmp.Stopped() {
			tot.earlyExits++
		}
		m.ClearProbe()
		tot.cowPages += m.Mem.RAM.CowPrivatized() - cowBase
		step("cpu.sync_restore", root, func() { m.SyncRestore(csnap) })
		e.rec.end(root)

		tot.faults++
		tot.windowCycles += out[i].SimCycles
		tot.advanceCycles += adv
	}
	if m != nil {
		pool.Put(m)
	}
	return out
}

// anatomy replays one chunk per pair by hand, checks every classification
// against what Runner.Run returns for the same faults, and turns the
// replay's spans into the per-fault budget.
func anatomy(e *env) error {
	var tot replayTotals
	for _, pair := range anatomyPairs {
		r, err := newRunner(pair.program)
		if err != nil {
			return err
		}
		id := pair.structure + "/" + pair.program
		faults := r.FaultList(pair.structure, e.sc.replay, anatomySeed)
		store := ckpt.Record(r.Cfg, r.Prog, r.Golden.Cycles, 0)
		pool := ckpt.NewPool(r.Cfg, r.Prog)
		// Untimed first passes pay the one-time costs on both sides: the
		// runner's own checkpoint store and each pool's first machine.
		r.Run(faults[:1], campaign.ModeAVGI, gridWindow, 1)
		e.rec.enable(false)
		replayChunk(e, r, store, pool, faults[:1], id, &replayTotals{})
		e.rec.enable(true)

		t0 := time.Now()
		want := r.Run(faults, campaign.ModeAVGI, gridWindow, 1)
		tot.runWall += time.Since(t0)
		t0 = time.Now()
		got := replayChunk(e, r, store, pool, faults, id, &tot)
		tot.replayWall += time.Since(t0)

		tot.quarantined += checkCampaign(&e.chk, "replay "+id, faults, want)
		for i := range want {
			w, g := want[i], got[i]
			if w.IMM != g.IMM || w.Manifested != g.Manifested || w.ManifestLatency != g.ManifestLatency ||
				w.SimCycles != g.SimCycles || w.Crash != g.Crash || w.Runaway != g.Runaway {
				tot.mismatches++
				e.chk.fail("replay %s fault %d: replay %v/%t/%d cycles, Runner.Run %v/%t/%d cycles",
					id, w.Fault.ID, g.IMM, g.Manifested, g.SimCycles, w.IMM, w.Manifested, w.SimCycles)
			}
		}
	}
	fmt.Printf("# anatomy replay: %d faults over %d pairs, %d mismatches against Runner.Run\n",
		tot.faults, len(anatomyPairs), tot.mismatches)

	spans := e.rec.snapshot()
	total, _ := spanTotals(spans)
	self := selfTimes(spans)
	var faultSelf time.Duration
	for i, s := range spans {
		if s.Name == "campaign.fault" {
			faultSelf += self[i]
		}
	}
	n := float64(tot.faults)
	per := func(d time.Duration) float64 { return micros(d) / n }
	e.set("campaign.fault_us", per(total["campaign.fault"]))
	e.set("campaign.advance_us_per_fault", per(total["cpu.advance"]))
	e.set("campaign.sync_us_per_fault", per(total["cpu.sync_snapshot"]))
	e.set("campaign.window_us_per_fault", per(total["campaign.window"]))
	e.set("campaign.restore_us_per_fault", per(total["cpu.sync_restore"]))
	e.set("campaign.classify_us_per_fault", per(total["imm.classify"]))
	e.set("campaign.self_us_per_fault", per(faultSelf))
	e.set("campaign.window_cycles_per_fault", float64(tot.windowCycles)/n)
	e.set("campaign.advance_cycles_per_fault", float64(tot.advanceCycles)/n)
	e.set("campaign.early_exit_ratio", float64(tot.earlyExits)/n)
	e.set("campaign.replay_vs_run_ratio", ratio(seconds(tot.replayWall), seconds(tot.runWall)))
	e.set("mem.cow_pages_per_fault", float64(tot.cowPages)/n)
	e.add("campaign.quarantined_total", float64(tot.quarantined))
	return nil
}
