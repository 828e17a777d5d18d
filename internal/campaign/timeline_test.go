package campaign

import (
	"flag"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/forensics"
	"avgi/internal/mem"
	"avgi/internal/obs"
	"avgi/internal/prog"
	"avgi/internal/trace"
)

// timelineWorkloads is the TestEarlyExitDifferential matrix: the benchmark
// grid's four programs and crc32, all twelve structures of each.
var timelineWorkloads = []string{"sha", "qsort", "rijndael", "cg", "crc32"}

// timelineFaults is one runner's share of that matrix: 72 faults on every
// structure and the aimed TLB flips — 16 and the first 64 under -short and
// -race, where a fault costs ten times as much.
func timelineFaults(r *Runner) [][]fault.Fault {
	n, aim := 72, 1<<30
	if testing.Short() || raceEnabled {
		n, aim = 16, 64
	}
	var lists [][]fault.Fault
	for _, st := range cpu.StructureNames {
		lists = append(lists, r.FaultList(st, n, 11))
	}
	for _, st := range []string{"ITLB", "DTLB"} {
		if aimed := tlbAimed(r, st); len(aimed) > 0 {
			lists = append(lists, aimed[:min(aim, len(aimed))])
		}
	}
	return lists
}

// windowEnd is the cycle a clean ModeAVGI window of f ends in: the first
// golden commit beyond f.Cycle+ert, or the golden halt.
func windowEnd(r *Runner, f fault.Fault, ert uint64) uint64 {
	tr := r.Golden.Trace
	if k := sort.Search(len(tr), func(k int) bool { return tr[k].Cycle > f.Cycle+ert }); k < len(tr) {
		return tr[k].Cycle
	}
	return r.Golden.Cycles
}

// TestTimelineMatchesProbe is the gate on the golden site timeline itself:
// what it says of a site is what a live probe sees. Every fault of the
// matrix is injected at its own cycle into a clone of a golden machine, with
// a probe armed and no early exit, and run to the end of its window; the
// timeline's liveness must equal the probe's, and its first event — cycle,
// read or erasure, and the erasure's mechanism — the first the probe
// recorded. The probe sees everything up to the cycle its run ended in, and
// only part of that one: an event the timeline places there is not compared.
// A queue entry's consumption is the machine check at its commit, which
// leaves no read in the facts: there the run must have crashed on that cycle.
func TestTimelineMatchesProbe(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine throughout: nothing for the race detector to see")
	}
	const ert = 2000
	for _, workload := range timelineWorkloads {
		r := newTestRunner(t, cpu.ConfigA72(), workload)
		store, _ := r.checkpoints()
		tl := store.Timeline()
		// One golden pass serves every list: all the faults, by cycle.
		var faults []fault.Fault
		for _, list := range timelineFaults(r) {
			faults = append(faults, list...)
		}
		sort.SliceStable(faults, func(i, j int) bool { return faults[i].Cycle < faults[j].Cycle })
		{
			golden := cpu.New(r.Cfg, r.Prog)
			var cmp trace.Comparator
			for _, f := range faults {
				golden.Run(cpu.RunOptions{StopAtCycle: f.Cycle})
				if f.Cycle >= r.Golden.Cycles {
					continue
				}
				m := golden.Clone()
				m.Target(f.Structure).FlipBit(f.Bit)
				probe := m.ArmProbe(f.Structure, f.Bit, 1)
				cmp.Golden = r.Golden.Trace
				cmp.Reset()
				cmp.StartAt(int(m.Stats.Commits))
				cmp.StopAtFirst, cmp.StopCycle = true, f.Cycle+ert
				m.SetSink(&cmp)
				res := m.Run(cpu.RunOptions{MaxCycles: r.RunawayLimit()})
				facts := probe.Facts()

				fate, _ := tl.Fate(f.Structure, f.Bit, f.Cycle, windowEnd(r, f, ert))
				name := workload + " " + f.String()
				if fate.Live != (facts.LiveSites == 1) {
					t.Errorf("%s: timeline says live=%v, the probe found %d live sites", name, fate.Live, facts.LiveSites)
					continue
				}
				if !fate.Live {
					continue
				}
				first := facts.FirstRead
				if first == 0 || facts.FirstKill != 0 && facts.FirstKill < first {
					first = facts.FirstKill
				}
				queue := f.Structure == "ROB" || f.Structure == "LQ" || f.Structure == "SQ"
				unknown := strings.HasSuffix(f.Structure, "TLB") && fate.Cycle == f.Cycle+1 && f.Bit%25 >= 12
				switch {
				case unknown:
					// A flip that makes the entry serve another page: the
					// timeline makes no claim and the fault forks at once.
				case fate.Cycle == 0 || fate.Cycle >= res.Cycles:
					if first != 0 && first < res.Cycles {
						t.Errorf("%s: the probe saw an event at cycle %d, the timeline none before %d (%+v)", name, first, res.Cycles, fate)
					}
					if queue && fate.Cycle == res.Cycles && !fate.Erased() && res.Crash != cpu.CrashMachineCheck {
						t.Errorf("%s: timeline has the entry retire at %d, the run ended there %v/%v", name, fate.Cycle, res.Status, res.Crash)
					}
				case queue && !fate.Erased():
					t.Errorf("%s: timeline has the entry retire at %d, but the run went on to %d", name, fate.Cycle, res.Cycles)
				case fate.Erased():
					mech := mem.ProbeOverwrite
					if facts.Squashes > 0 {
						mech = mem.ProbeSquash
					} else if facts.EvictsClean > 0 {
						mech = mem.ProbeEvictClean
					}
					if facts.FirstKill != fate.Cycle || facts.FirstRead != 0 && facts.FirstRead <= fate.Cycle || mech != fate.Event {
						t.Errorf("%s: timeline says erased at %d by event %d, probe facts %+v", name, fate.Cycle, fate.Event, facts)
					}
				default:
					if facts.FirstRead != fate.Cycle || facts.FirstKill != 0 && facts.FirstKill < fate.Cycle ||
						fate.Event == mem.ProbeWriteback && (facts.Writebacks == 0 || facts.FirstKill != fate.Cycle) {
						t.Errorf("%s: timeline says read at %d (event %d), probe facts %+v", name, fate.Cycle, fate.Event, facts)
					}
				}
			}
		}
	}
}

// liveOracle runs fn with the golden site timeline switched off, so that
// every fault forks at its own cycle and meets the live convergence oracle.
func liveOracle(fn func()) {
	earlyExitCheck = func(*cpu.Machine, fault.Fault, cpu.ProbeFacts) {}
	defer func() { earlyExitCheck = nil }()
	fn()
}

// requireSameResults fails unless the two campaigns agree on every field of
// every Result, SimCycles and the forensics record included.
func requireSameResults(t *testing.T, what string, want, got []Result) {
	t.Helper()
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s fault %d (%s): the results differ:\n  reference %+v %+v\n  got       %+v %+v",
				what, i, want[i].Fault, want[i], want[i].Forensics, got[i], got[i].Forensics)
		}
	}
}

// TestTimelineDifferential is the gate on what the campaign does with the
// timeline: resolving faults by lookup and forking the rest at their first
// use must leave every Result exactly as the live oracle writes it — the
// cycles charged and the forensics record too — for one worker and for two.
func TestTimelineDifferential(t *testing.T) {
	for _, workload := range timelineWorkloads {
		r := newTestRunner(t, cpu.ConfigA72(), workload)
		r.EarlyExit = true
		r.Forensics = forensics.NewExplorer()
		resolved := 0
		for _, faults := range timelineFaults(r) {
			var live []Result
			liveOracle(func() { live = r.Run(faults, ModeAVGI, 2000, 2) })
			for _, workers := range []int{1, 2} {
				fast := r.Run(faults, ModeAVGI, 2000, workers)
				requireSameResults(t, workload+"/"+faults[0].Structure, live, fast)
			}
			for _, res := range live {
				if res.SimCycles == 1 {
					resolved++
				}
			}
		}
		if resolved == 0 {
			t.Errorf("%s: no fault on a dead site in the whole matrix", workload)
		}
	}
}

// TestTimelineHaltWindow pins the windows that end at the program's halt:
// every exhaustive and HVF window, and an AVGI window longer than what is
// left of the run. A register freed after the injection and never allocated
// again meets no event before the halt. The timeline must settle it as
// untouched, as the live oracle sees it; forked one cycle short of the halt,
// a probe armed there would find it on the free list, call it born dead, and
// attribute the fault to the wrong cause. These three programs hold such
// registers; under the race detector the shortest will do.
func TestTimelineHaltWindow(t *testing.T) {
	workloads := []string{"cg", "is", "stringsearch"}
	if raceEnabled {
		workloads = workloads[2:]
	}
	for _, workload := range workloads {
		r := newTestRunner(t, cpu.ConfigA72(), workload)
		r.EarlyExit = true
		r.Forensics = forensics.NewExplorer()
		faults, window := r.FaultList("RF", 64, 11), r.Golden.Cycles
		var live []Result
		liveOracle(func() { live = r.Run(faults, ModeAVGI, window, 2) })
		requireSameResults(t, workload+"/RF", live, r.Run(faults, ModeAVGI, window, 2))
	}
}

// TestTimelineDifferentialModes is TestTimelineDifferential for the modes
// whose window is the rest of the program. An exhaustive or HVF campaign
// with EarlyExit on — faults resolved by lookup, the rest forked at their
// site's first use, every run the oracle stops completed as the golden one
// — must write every Result exactly as the full runs with EarlyExit off do,
// cycles charged and forensics record included, for one worker and for two;
// and so must the live oracle alone. Each mode must resolve a fault and stop
// one, or the test proves nothing about that path.
func TestTimelineDifferentialModes(t *testing.T) {
	workloads, n, counts, late := timelineWorkloads, 10, []int{1, 2}, false
	straddled := []string{"RF", "ROB", "L1D (Data)", "L1D (Tag)", "DTLB"}
	if testing.Short() || raceEnabled {
		// Two short programs, and faults from the later half of each list,
		// whose runs to the halt are the shortest.
		workloads, n, late = []string{"sha", "stringsearch"}, 8, true
	}
	if raceEnabled {
		// One worker, or a multi-bit list, shows the detector nothing the
		// single-bit lists on two workers do not.
		counts, straddled = []int{2}, nil
	}
	modes := []Mode{ModeExhaustive, ModeHVF}
	resolved, stopped := map[Mode]int{}, map[Mode]int{}
	for _, workload := range workloads {
		r := newTestRunner(t, cpu.ConfigA72(), workload)
		r.Forensics = forensics.NewExplorer()
		store, _ := r.checkpoints()
		lists := timelineFaults(r)
		// Multi-bit faults meet the live oracle alone; these straddle two
		// entries, one of which may be born dead (TestEarlyExitStateGolden).
		for _, st := range straddled {
			faults, per := r.MultiBitFaultList(st, n, 2, 13), entryBits(r, st)
			for i := range faults {
				faults[i].Bit = max(faults[i].Bit/per, 1)*per - 1
			}
			lists = append(lists, faults)
		}
		for _, list := range lists {
			if late {
				list = list[len(list)/2:]
			}
			faults := make([]fault.Fault, min(n, len(list)))
			for i := range faults {
				faults[i] = list[i*len(list)/len(faults)]
			}
			what := workload + "/" + faults[0].Structure
			for _, mode := range modes {
				r.EarlyExit = false
				full := r.Run(faults, mode, 0, 2)
				r.EarlyExit = true
				var stops atomic.Int64
				earlyExitCheck = func(*cpu.Machine, fault.Fault, cpu.ProbeFacts) { stops.Add(1) }
				live := r.Run(faults, mode, 0, 2)
				earlyExitCheck = nil
				requireSameResults(t, what+" "+mode.String()+" live oracle", full, live)
				for _, workers := range counts {
					requireSameResults(t, what+" "+mode.String(), full, r.Run(faults, mode, 0, workers))
				}
				w := &worker{r: r, mode: mode, tl: store.Timeline()}
				for _, f := range faults {
					if _, _, _, fm := w.resolve(f); fm.resolved != 0 {
						resolved[mode]++
					}
				}
				stopped[mode] += int(stops.Load())
			}
		}
	}
	for _, mode := range modes {
		t.Logf("%s: %d faults resolved by lookup, %d runs stopped by the oracle", mode, resolved[mode], stopped[mode])
		if resolved[mode] == 0 || stopped[mode] == 0 {
			t.Errorf("%s: %d faults resolved, %d runs stopped: a path went untested", mode, resolved[mode], stopped[mode])
		}
	}
}

// TestTimelineDifferentialSweep is TestTimelineDifferential over everything
// the repository can run: all thirteen programs on both machines, twelve
// structures each, 80 faults a pair (PR 24 made this sweep once, by hand,
// for the oracle), and 16 a pair in ModeExhaustive against the full runs.
// It runs when asked for by name.
func TestTimelineDifferentialSweep(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "Sweep") || testing.Short() || raceEnabled {
		t.Skip("24 960 AVGI faults and 4 992 exhaustive ones, twice: go test -run TestTimelineDifferentialSweep ./internal/campaign")
	}
	for _, cfg := range []cpu.Config{cpu.ConfigA72(), cpu.ConfigA15()} {
		for _, w := range prog.All() {
			r := newTestRunner(t, cfg, w.Name)
			for _, st := range cpu.StructureNames {
				name := cfg.Name + "/" + w.Name + "/" + st
				r.EarlyExit = true
				faults := r.FaultList(st, 80, 5)
				var live []Result
				liveOracle(func() { live = r.Run(faults, ModeAVGI, 2000, 2) })
				requireSameResults(t, name, live, r.Run(faults, ModeAVGI, 2000, 2))

				faults = r.FaultList(st, 16, 5)
				r.EarlyExit = false
				full := r.Run(faults, ModeExhaustive, 0, 2)
				r.EarlyExit = true
				requireSameResults(t, name+" exhaustive", full, r.Run(faults, ModeExhaustive, 0, 2))
			}
		}
	}
}

// TestTimelineCensusPopulation checks the fault sampler and the recorder
// against the census: in an exhaustive campaign with EarlyExit, the faults
// avgi_window_resolved_total counts as dead, erased and untouched must each
// lie within four standard deviations of n times the census's exact share.
// fault.List samples (bit, cycle) uniformly and every bit of a core site
// shares its fate, so a sampler that favoured some cycles or registers, or a
// resolve that disagreed with the timeline, would pull a count away. (resolve
// forks the faults at the halt cycle and those erased there, a share of one
// cycle in the run.)
func TestTimelineCensusPopulation(t *testing.T) {
	const n = 400
	cfgs, workloads := []cpu.Config{cpu.ConfigA72(), cpu.ConfigA15()}, []string{"sha", "crc32"}
	if testing.Short() || raceEnabled {
		cfgs, workloads = cfgs[:1], workloads[:1]
	}
	for _, cfg := range cfgs {
		for _, workload := range workloads {
			r := newTestRunner(t, cfg, workload)
			r.EarlyExit, r.Obs = true, obs.New(nil)
			for _, st := range []string{"RF", "LQ"} {
				r.Run(r.FaultList(st, n, 1), ModeExhaustive, 0, 2)
				c, _ := r.Timeline().Census(st, r.Golden.Cycles)
				all := float64(c.Dead + c.Untouched + c.Erased + c.ReadFirst)
				for fate, pairs := range [...]uint64{resolvedDead: c.Dead, resolvedErased: c.Erased, resolvedUntouched: c.Untouched} {
					if fate == 0 {
						continue
					}
					got := r.Obs.Metrics.Counter("avgi_window_resolved_total", "", map[string]string{
						"fate": resolvedNames[fate], "structure": st, "workload": workload, "mode": "exhaustive"}).Value()
					p := float64(pairs) / all
					z := 0.0
					if pairs != 0 {
						z = (float64(got) - n*p) / math.Sqrt(n*p*(1-p))
					}
					name := cfg.Name + "/" + workload + "/" + st + " " + resolvedNames[fate]
					t.Logf("%s: %d resolved, the census expects %.1f (z %+.2f)", name, got, n*p, z)
					if pairs == 0 && got != 0 || math.Abs(z) > 4 {
						t.Errorf("%s: %d of %d faults resolved, the census share %.4f expects %.1f", name, got, n, p, n*p)
					}
				}
			}
		}
	}
}

// TestAllocResolvedFault: a fault the timeline resolves allocates nothing.
func TestAllocResolvedFault(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := newTestRunner(t, cpu.ConfigA72(), "sha")
	store, _ := r.checkpoints()
	w := &worker{r: r, mode: ModeAVGI, ert: 2000, tl: store.Timeline()}
	for _, st := range cpu.StructureNames {
		var fates [resolvedUntouched + 1]int
		for _, f := range r.FaultList(st, 200, 3) {
			var fm forkMeta
			if allocs := testing.AllocsPerRun(1, func() { _, _, _, fm = w.resolve(f) }); allocs != 0 {
				t.Fatalf("%s: resolving allocated %v times", f, allocs)
			}
			fates[fm.resolved]++
		}
		t.Logf("%-10s forked %3d, dead %3d, erased %3d, untouched %3d", st, fates[0], fates[resolvedDead], fates[resolvedErased], fates[resolvedUntouched])
	}
}

// TestTimelineBytesPerCommit bounds the golden site timeline's memory: at
// most 48 bytes per committed instruction on the three programs that span
// the grid's range of memory behaviour.
func TestTimelineBytesPerCommit(t *testing.T) {
	if raceEnabled {
		t.Skip("a size, not a schedule: nothing for the race detector to see")
	}
	for _, workload := range []string{"sha", "qsort", "rijndael"} {
		r := newTestRunner(t, cpu.ConfigA72(), workload)
		store, _ := r.checkpoints()
		per := float64(store.Timeline().Bytes()) / float64(r.Golden.Commits)
		t.Logf("%s: %d bytes of timeline for %d commits: %.1f B/commit", workload, store.Timeline().Bytes(), r.Golden.Commits, per)
		if per > 48 {
			t.Errorf("%s: the timeline takes %.1f bytes per committed instruction, want <= 48", workload, per)
		}
	}
}

// BenchmarkTimelineResolve measures the lookup that stands in for a faulty
// window: one Fate query and the Result it lets the worker write, over a
// mixed list of every structure's faults.
func BenchmarkTimelineResolve(b *testing.B) {
	r := sharedBenchRunner(b)
	store, _ := r.checkpoints()
	w := &worker{r: r, mode: ModeAVGI, ert: 2000, tl: store.Timeline()}
	var faults []fault.Fault
	for _, st := range cpu.StructureNames {
		faults = append(faults, r.FaultList(st, 64, 1)...)
	}
	resolved := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, fm := w.resolve(faults[i%len(faults)]); fm.resolved != 0 {
			resolved++
		}
	}
	b.ReportMetric(float64(resolved)/float64(b.N), "resolved/op")
}
