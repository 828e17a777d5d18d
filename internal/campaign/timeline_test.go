package campaign

import (
	"flag"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
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
		tl := r.Timeline()
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

// requireCharged fails unless a campaign with EarlyExit (fast) writes every
// Result as the full runs with EarlyExit off (full) do, forensics record
// included. A fault resolve forks must match in every field. A resolved one
// must match in every field but SimCycles, which must follow the charge
// rule: in ModeAVGI 1 cycle for a dead fault, less than the full window for
// an erased one, the whole window for an untouched one; in the other modes
// the run to the halt, as the full run's. With forensics on, an erased
// fault's charge is pinned exactly: the full run's probe saw its latest
// erase, and the record's Latency is that erase's distance from injection.
// Returns how many faults resolved dead.
func requireCharged(t *testing.T, what string, r *Runner, mode Mode, ert uint64, faults []fault.Fault, full, fast []Result) (dead int) {
	t.Helper()
	w := &worker{r: r, mode: mode, ert: ert, tl: r.Timeline()}
	for i, f := range faults {
		_, _, _, fm := w.resolve(f)
		want, got := full[i], fast[i]
		charged := got.SimCycles == want.SimCycles
		if mode == ModeAVGI {
			switch fm.resolved {
			case resolvedDead:
				charged = got.SimCycles == 1
			case resolvedErased:
				charged = got.SimCycles >= 1 && got.SimCycles < want.SimCycles &&
					(want.Forensics == nil || got.SimCycles == want.Forensics.Latency)
			}
			want.SimCycles, got.SimCycles = 0, 0
		}
		if fm.resolved == resolvedDead {
			dead++
		}
		if !reflect.DeepEqual(want, got) || !charged {
			t.Fatalf("%s fault %d (%s, resolved %q): the results differ:\n  full run    %+v %+v\n  early exit  %+v %+v",
				what, i, f, resolvedNames[fm.resolved], full[i], full[i].Forensics, fast[i], fast[i].Forensics)
		}
	}
	return dead
}

// TestTimelineDifferential is the gate on what the campaign does with the
// timeline: resolving faults by lookup and forking the rest at their first
// use must leave every Result as the full windows write it, the charge rule
// apart, forensics record included, for one worker and for two.
func TestTimelineDifferential(t *testing.T) {
	for _, workload := range timelineWorkloads {
		r := newTestRunner(t, cpu.ConfigA72(), workload)
		r.Forensics = forensics.NewExplorer()
		dead := 0
		for _, faults := range timelineFaults(r) {
			r.EarlyExit = false
			full := r.Run(faults, ModeAVGI, 2000, 2)
			r.EarlyExit = true
			for _, workers := range []int{1, 2} {
				fast := r.Run(faults, ModeAVGI, 2000, workers)
				dead += requireCharged(t, workload+"/"+faults[0].Structure, r, ModeAVGI, 2000, faults, full, fast)
			}
		}
		if dead == 0 {
			t.Errorf("%s: no fault on a dead site in the whole matrix", workload)
		}
	}
}

// TestTimelineDifferentialPaths holds TestTimelineDifferential's matrix to
// the paths it is there to test: on each of ROB, LQ and SQ a fault resolve
// settles as the machine check at its slot's commit, and on L1D (Tag) one
// it settles as erased, which only a clean eviction ahead of any lookup of
// the line's golden or flipped tag does.
func TestTimelineDifferentialPaths(t *testing.T) {
	want := map[string]uint8{"ROB": resolvedMachineCheck, "LQ": resolvedMachineCheck, "SQ": resolvedMachineCheck,
		"L1D (Tag)": resolvedErased}
	got := map[string]int{}
	for _, workload := range timelineWorkloads {
		r := newTestRunner(t, cpu.ConfigA72(), workload)
		w := &worker{r: r, mode: ModeAVGI, ert: 2000, tl: r.Timeline()}
		for _, faults := range timelineFaults(r) {
			for _, f := range faults {
				if fate, ok := want[f.Structure]; ok {
					if _, _, _, fm := w.resolve(f); fm.resolved == fate {
						got[f.Structure]++
					}
				}
			}
		}
	}
	for _, st := range cpu.StructureNames {
		fate, ok := want[st]
		if !ok {
			continue
		}
		t.Logf("%s: %d faults resolved %s", st, got[st], resolvedNames[fate])
		if got[st] == 0 {
			t.Errorf("%s: the differential matrix resolves no %s fault: a path went untested", st, resolvedNames[fate])
		}
	}
}

// TestTimelineHaltWindow pins the windows that end at the program's halt:
// every exhaustive and HVF window, and an AVGI window longer than what is
// left of the run. A register freed after the injection and never allocated
// again meets no event before the halt. The timeline must settle it as
// untouched, as the full run sees it; forked one cycle short of the halt, a
// probe armed there would find it on the free list, call it born dead, and
// attribute the fault to the wrong cause. These three programs hold such
// registers; under the race detector the shortest will do.
func TestTimelineHaltWindow(t *testing.T) {
	workloads := []string{"cg", "is", "stringsearch"}
	if raceEnabled {
		workloads = workloads[2:]
	}
	for _, workload := range workloads {
		r := newTestRunner(t, cpu.ConfigA72(), workload)
		r.Forensics = forensics.NewExplorer()
		faults, window := r.FaultList("RF", 64, 11), r.Golden.Cycles
		r.EarlyExit = false
		full := r.Run(faults, ModeAVGI, window, 2)
		r.EarlyExit = true
		requireCharged(t, workload+"/RF", r, ModeAVGI, window, faults, full, r.Run(faults, ModeAVGI, window, 2))
	}
}

// TestTimelineDifferentialModes is TestTimelineDifferential for the modes
// whose window is the rest of the program. An exhaustive or HVF campaign
// with EarlyExit on — faults resolved by lookup, the rest forked at their
// sites' first use — must write every Result exactly as the full runs with
// EarlyExit off do, cycles charged and forensics record included, for one
// worker and for two. Besides the single-bit matrix it runs width-2 and
// width-4 faults on the core arrays, and the same moved onto entry
// boundaries, where a fault can straddle a live and a born-dead site. Each
// mode must resolve a multi-bit fault, or the test proves nothing about
// that path. Width-2 straddlers on a cache's data and tag arrays and on the
// DTLB must match too: resolve forks those at injection, since per-bit Fate
// does not describe the byte ranges and entries their probe watches (a
// write over one of two flipped bytes erases that byte, not the fault).
func TestTimelineDifferentialModes(t *testing.T) {
	workloads, n, counts, late := timelineWorkloads, 10, []int{1, 2}, false
	multi, uncore := []string{"RF", "ROB", "LQ", "SQ"}, []string{"L1D (Data)", "L1D (Tag)", "DTLB"}
	if testing.Short() || raceEnabled {
		// Two short programs, and faults from the later half of each list,
		// whose runs to the halt are the shortest.
		workloads, n, late = []string{"sha", "stringsearch"}, 8, true
	}
	if raceEnabled {
		// One worker, or a multi-bit list, shows the detector nothing the
		// single-bit lists on two workers do not.
		counts, multi, uncore = []int{2}, nil, nil
	}
	modes := []Mode{ModeExhaustive, ModeHVF}
	resolved, multiResolved := map[Mode]int{}, map[Mode]int{}
	for _, workload := range workloads {
		r := newTestRunner(t, cpu.ConfigA72(), workload)
		r.Forensics = forensics.NewExplorer()
		lists := timelineFaults(r)
		for _, width := range []int{2, 4} {
			for _, st := range multi {
				faults := r.MultiBitFaultList(st, n, width, 13)
				lists = append(lists, faults, straddle(r, faults))
			}
		}
		for _, st := range uncore {
			lists = append(lists, straddle(r, r.MultiBitFaultList(st, n, 2, 13)))
		}
		for _, list := range lists {
			if late {
				list = list[len(list)/2:]
			}
			faults := make([]fault.Fault, min(n, len(list)))
			for i := range faults {
				faults[i] = list[i*len(list)/len(faults)]
			}
			what := fmt.Sprintf("%s/%s x%d", workload, faults[0].Structure, faults[0].Bits())
			for _, mode := range modes {
				r.EarlyExit = false
				full := r.Run(faults, mode, 0, 2)
				r.EarlyExit = true
				for _, workers := range counts {
					requireCharged(t, what+" "+mode.String(), r, mode, 0, faults, full, r.Run(faults, mode, 0, workers))
				}
				w := &worker{r: r, mode: mode, tl: r.Timeline()}
				for _, f := range faults {
					if _, _, _, fm := w.resolve(f); fm.resolved != 0 {
						resolved[mode]++
						if f.Bits() > 1 {
							multiResolved[mode]++
						}
					}
				}
			}
		}
	}
	for _, mode := range modes {
		t.Logf("%s: %d faults resolved by lookup, %d of them multi-bit", mode, resolved[mode], multiResolved[mode])
		if resolved[mode] == 0 || multi != nil && multiResolved[mode] == 0 {
			t.Errorf("%s: %d faults resolved, %d of them multi-bit: a path went untested", mode, resolved[mode], multiResolved[mode])
		}
	}
}

// TestTimelineDifferentialSweep is TestTimelineDifferential over everything
// the repository can run: all thirteen programs on both machines, twelve
// structures each, 80 AVGI faults a pair and 16 exhaustive ones, against the
// full runs. It runs when asked for by name.
func TestTimelineDifferentialSweep(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "Sweep") || testing.Short() || raceEnabled {
		t.Skip("24 960 AVGI faults and 4 992 exhaustive ones, twice: go test -run TestTimelineDifferentialSweep ./internal/campaign")
	}
	for _, cfg := range []cpu.Config{cpu.ConfigA72(), cpu.ConfigA15()} {
		for _, w := range prog.All() {
			r := newTestRunner(t, cfg, w.Name)
			for _, st := range cpu.StructureNames {
				name := cfg.Name + "/" + w.Name + "/" + st
				for _, c := range []struct {
					mode   Mode
					ert    uint64
					faults []fault.Fault
				}{{ModeAVGI, 2000, r.FaultList(st, 80, 5)}, {ModeExhaustive, 0, r.FaultList(st, 16, 5)}} {
					r.EarlyExit = false
					full := r.Run(c.faults, c.mode, c.ert, 2)
					r.EarlyExit = true
					requireCharged(t, name+" "+c.mode.String(), r, c.mode, c.ert, c.faults, full, r.Run(c.faults, c.mode, c.ert, 2))
				}
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
	w := &worker{r: r, mode: ModeAVGI, ert: 2000, tl: r.Timeline()}
	for _, st := range cpu.StructureNames {
		var fates [len(resolvedNames)]int
		for _, f := range r.FaultList(st, 200, 3) {
			var fm forkMeta
			// Ten runs, so that a stray allocation by another goroutine of
			// the process does not count as this lookup's.
			if allocs := testing.AllocsPerRun(10, func() { _, _, _, fm = w.resolve(f) }); allocs != 0 {
				t.Fatalf("%s: resolving allocated %v times", f, allocs)
			}
			fates[fm.resolved]++
		}
		line := fmt.Sprintf("%-10s forked %3d", st, fates[0])
		for fate := resolvedDead; fate < len(resolvedNames); fate++ {
			line += fmt.Sprintf(", %s %3d", resolvedNames[fate], fates[fate])
		}
		t.Log(line)
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
		per := float64(r.Timeline().Bytes()) / float64(r.Golden.Commits)
		t.Logf("%s: %d bytes of timeline for %d commits: %.1f B/commit", workload, r.Timeline().Bytes(), r.Golden.Commits, per)
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
	w := &worker{r: r, mode: ModeAVGI, ert: 2000, tl: r.Timeline()}
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
