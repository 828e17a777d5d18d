package campaign

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/mem"
)

// nonState names the fields a faulty machine and a golden one may differ in
// where a resolved fault's charge ends without differing in state:
// configuration and immutable program data, observers (sink and
// probes), the delta-tracking lineage (dirty sets, RAM page ownership and its
// telemetry), pointers that lead back to components the walk reaches by name
// (lower, ramLevel), the flip counters the injection itself bumped, and
// status, checked apart.
var nonState = map[string]bool{
	"Cfg": true, "Prog": true, "text": true, "name": true, "cfg": true,
	"sink": true, "probe": true,
	"bimTouched": true, "btbTouched": true, "touched": true, "owned": true, "cow": true,
	"lower": true, "ramLevel": true,
	"FlipsArmed": true, "FlipsMasked": true, "status": true,
}

// stateDiff appends to out the path of every field in which a and b differ,
// reading unexported fields through reflect's getters. It walks whatever
// fields cpu.Machine and the mem components have, so an array added to
// either is compared without an edit here. A queue slot free on both
// machines compares equal whatever it holds: allocation overwrites the
// whole entry before anything reads it.
func stateDiff(path string, a, b reflect.Value, out *[]string) {
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				*out = append(*out, path)
			}
			return
		}
		stateDiff(path, a.Elem(), b.Elem(), out)
	case reflect.Struct:
		if u := a.FieldByName("used"); u.IsValid() && !u.Bool() && !b.FieldByName("used").Bool() {
			return
		}
		for i := 0; i < a.NumField(); i++ {
			if name := a.Type().Field(i).Name; !nonState[name] {
				stateDiff(path+"."+name, a.Field(i), b.Field(i), out)
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			*out = append(*out, fmt.Sprintf("%s (len %d vs %d)", path, a.Len(), b.Len()))
			return
		}
		switch a.Type().Elem().Kind() {
		case reflect.Struct, reflect.Slice, reflect.Array, reflect.Pointer, reflect.Interface:
		default:
			// Padding-free elements: one memcmp settles the common case.
			n := a.Len() * int(a.Type().Elem().Size())
			if bytes.Equal(unsafe.Slice((*byte)(a.UnsafePointer()), n), unsafe.Slice((*byte)(b.UnsafePointer()), n)) {
				return
			}
		}
		fallthrough
	case reflect.Array:
		for i, before := 0, len(*out); i < a.Len() && len(*out) == before; i++ {
			stateDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), out)
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			*out = append(*out, path)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			*out = append(*out, path)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			*out = append(*out, path)
		}
	default:
		panic("stateDiff: teach it kind " + a.Kind().String() + " at " + path)
	}
}

func machineDiff(a, b *cpu.Machine) []string {
	var out []string
	stateDiff("Machine", reflect.ValueOf(a), reflect.ValueOf(b), &out)
	return out
}

// checkStateGolden holds the golden site timeline to its claim on the
// machines themselves. Every fault of faults that resolve settles as dead or
// erased, in a window of ert cycles, is flipped on a golden clone at its
// cycle and run to the cycle it is charged to, then compared with a golden
// machine at that cycle: every field of cpu.Machine and, through Mem, of
// each cache, each TLB and RAM. The two must be equal as they are, or equal
// once the golden machine has had flipped the bits the fault put where
// nothing can reach them: all of them when no site was live, and of a
// multi-bit fault that straddles entries those on its born-dead ones
// (bornDead). A window that reaches the halt is the one exhaustive and HVF
// faults resolve in. Returns the faults checked, and how many of them
// straddled a live and a born-dead site.
func checkStateGolden(t *testing.T, r *Runner, ert uint64, faults []fault.Fault) (checked, straddlers int) {
	t.Helper()
	w := &worker{r: r, mode: ModeAVGI, ert: ert, tl: r.Timeline()}
	var golden *cpu.Machine
	for _, f := range faults {
		_, res, _, fm := w.resolve(f)
		if fm.resolved != resolvedDead && fm.resolved != resolvedErased {
			continue
		}
		checked++
		if golden == nil || golden.Cycle() > f.Cycle {
			golden = cpu.New(r.Cfg, r.Prog)
		}
		golden.Run(cpu.RunOptions{StopAtCycle: f.Cycle})
		stop := f.Cycle + res.SimCycles
		m := golden.Clone()
		for b := uint64(0); b < uint64(f.Bits()); b++ {
			m.Target(f.Structure).FlipBit(f.Bit + b)
		}
		facts := m.ArmProbe(f.Structure, f.Bit, f.Bits()).Facts()
		m.ClearProbe()
		m.Run(cpu.RunOptions{StopAtCycle: stop})
		g := golden.Clone()
		g.Run(cpu.RunOptions{StopAtCycle: stop})
		if m.Status() != g.Status() || m.Cycle() != stop || g.Cycle() != stop {
			t.Errorf("%s %s: charged to cycle %d, the faulty machine is %v at %d, golden %v at %d",
				r.Prog.Name, f, stop, m.Status(), m.Cycle(), g.Status(), g.Cycle())
			continue
		}
		if (fm.resolved == resolvedDead) != (facts.LiveSites == 0) {
			t.Errorf("%s %s: resolved %s, but a probe finds %d live sites", r.Prog.Name, f, resolvedNames[fm.resolved], facts.LiveSites)
		}
		if facts.LiveSites > 0 && facts.LiveSites < facts.Sites {
			straddlers++
		}
		diff := machineDiff(m, g)
		if len(diff) != 0 && facts.LiveSites < facts.Sites {
			tg := g.Target(f.Structure)
			for _, bit := range bornDead(r, golden, f, facts) {
				tg.FlipBit(bit)
			}
			diff = machineDiff(m, g)
		}
		if len(diff) != 0 {
			t.Errorf("%s %s: resolved %s and charged %d cycles, but the state there is not golden (facts %+v): %v",
				r.Prog.Name, f, resolvedNames[fm.resolved], res.SimCycles, facts, diff)
		}
	}
	return checked, straddlers
}

// entryBits returns the bits per array entry — register, queue slot, TLB
// entry, tag entry or data line — of a structure: a probe's sites.
func entryBits(r *Runner, structure string) uint64 {
	s, _ := cpu.StructureNamed(structure)
	_, bits := s.Geometry(&r.Cfg)
	return bits
}

// straddle moves each fault's first bit onto the last bit of an entry, so
// that a multi-bit flip covers the end of one entry and the start of the next.
func straddle(r *Runner, faults []fault.Fault) []fault.Fault {
	per := entryBits(r, faults[0].Structure)
	out := make([]fault.Fault, len(faults))
	for i, f := range faults {
		f.Bit = max(f.Bit/per, 1)*per - 1
		out[i] = f
	}
	return out
}

// bornDead returns the bits of f that landed on sites holding nothing
// reachable at injection, at being the golden machine at f.Cycle. With no
// live site that is all of them; otherwise the fault is split by array
// entry, and a share is dead when a probe armed over it alone, on a copy
// with only that share flipped, finds no live site.
func bornDead(r *Runner, at *cpu.Machine, f fault.Fault, facts cpu.ProbeFacts) []uint64 {
	per, end := entryBits(r, f.Structure), f.Bit+uint64(f.Bits())
	var dead []uint64
	for lo := f.Bit; lo < end; {
		hi := min((lo/per+1)*per, end)
		isDead := facts.LiveSites == 0
		if !isDead {
			c := at.Clone()
			for b := lo; b < hi; b++ {
				c.Target(f.Structure).FlipBit(b)
			}
			isDead = c.ArmProbe(f.Structure, lo, int(hi-lo)).Facts().LiveSites == 0
		}
		for b := lo; isDead && b < hi; b++ {
			dead = append(dead, b)
		}
		lo = hi
	}
	return dead
}

// tlbAimed lists faults on the valid bit and the lowest vpn bit of every
// entry of a TLB, injected shortly ahead of up to eight of the golden run's
// refills: the flips that change what a lookup or a victim scan decides, at
// the moments one is about to, which a sampled list of sixty rarely holds.
func tlbAimed(r *Runner, st string) []fault.Fault {
	entries, tlb := r.Cfg.Mem.ITLBEntries, func(m *cpu.Machine) *mem.TLB { return m.Mem.ITLB }
	if st == "DTLB" {
		entries, tlb = r.Cfg.Mem.DTLBEntries, func(m *cpu.Machine) *mem.TLB { return m.Mem.DTLB }
	}
	per := r.BitCounts[st] / uint64(entries)
	var out []fault.Fault
	m := cpu.New(r.Cfg, r.Prog)
	m.Run(cpu.RunOptions{StopAtCycle: 2000}) // past the cold misses
	for refills := 0; m.Status() == cpu.StatusRunning && refills < 8; {
		at, misses := m.Cycle(), tlb(m).Misses
		m.Run(cpu.RunOptions{StopAtCycle: at + 1000})
		if tlb(m).Misses == misses {
			continue
		}
		refills++
		for e := uint64(0); e < uint64(entries); e++ {
			for _, bit := range []uint64{per - 1, (per - 1) / 2} {
				out = append(out, fault.Fault{ID: len(out), Structure: st, Bit: e*per + bit, Cycle: at})
			}
		}
	}
	return out
}

// TestEarlyExitStateGolden is the state-level gate on what EarlyExit skips:
// "bit-identical to golden where the charge ends", checked on the machines
// themselves for all twelve structures, the aimed TLB flips, and width-2 and
// width-4 faults on the core arrays, straddlers included, where
// TestEarlyExitDifferential can only compare outcomes.
func TestEarlyExitStateGolden(t *testing.T) {
	checked := map[string]int{}
	n, straddlers := 60, 0
	if raceEnabled {
		n = 20
	}
	for _, workload := range []string{"sha", "qsort"} {
		r := newTestRunner(t, cpu.ConfigA72(), workload)
		for _, st := range cpu.StructureNames {
			c, _ := checkStateGolden(t, r, 2000, r.FaultList(st, 60, 11))
			checked[st] += c
			// Exhaustive and HVF faults resolve in the window to the halt.
			if workload == "sha" {
				c, _ = checkStateGolden(t, r, r.Golden.Cycles, r.FaultList(st, n, 11))
				checked[st+" to the halt"] += c
			}
		}
		checkStateGolden(t, r, 2000, tlbAimed(r, "ITLB"))
		checkStateGolden(t, r, 2000, tlbAimed(r, "DTLB"))
		for _, width := range []int{2, 4} {
			for _, st := range []string{"RF", "ROB", "LQ", "SQ"} {
				faults := r.MultiBitFaultList(st, n, width, 13)
				for i, list := range [][]fault.Fault{faults, straddle(r, faults)} {
					c, s := checkStateGolden(t, r, 2000, list)
					checked[fmt.Sprint(st, " x", width, []string{"", " straddling"}[i])] += c
					straddlers += s
				}
			}
		}
	}
	t.Logf("%d resolved faults straddling a live and a born-dead site checked", straddlers)
	if straddlers < 10 && !raceEnabled {
		t.Errorf("only %d resolved faults straddling a live and a born-dead site", straddlers)
	}
	for st, n := range checked {
		if n == 0 {
			t.Errorf("%s: no dead or erased fault to check", st)
		}
	}
}

// TestEarlyExitStateGoldenGrid is the same gate over the benchmark's own
// avgi-grid: its four programs, 250 faults a pair, seed 7. It runs when
// asked for by name (CI's tier-1 job does), not under -race: one goroutine
// leaves the detector nothing to see, at fifteen times the price.
func TestEarlyExitStateGoldenGrid(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "StateGolden") || testing.Short() || raceEnabled {
		t.Skip("12 000 faults: go test -run TestEarlyExitStateGoldenGrid ./internal/campaign")
	}
	for _, workload := range []string{"sha", "qsort", "rijndael", "cg"} {
		r := newTestRunner(t, cpu.ConfigA72(), workload)
		for _, st := range cpu.StructureNames {
			checkStateGolden(t, r, 2000, r.FaultList(st, 250, 7))
		}
	}
}
