package avgi

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avgi/internal/asm"
	"avgi/internal/campaign"
	"avgi/internal/isa"
)

// schedTestConfig is the small overlapping-pair grid the scheduler tests
// drive: every goroutine walks all four pairs, so single-flight coalescing
// is exercised on every campaign.
var (
	schedWorkloads  = []string{"sha", "crc32"}
	schedStructures = []string{"RF", "ROB"}
)

const schedFaults = 16

func newSchedStudy(t *testing.T, obsv *Observer) *Study {
	t.Helper()
	s, err := NewStudy(StudyConfig{
		Machine:            ConfigA72(),
		Workloads:          pick(t, schedWorkloads...),
		Structures:         schedStructures,
		FaultsPerStructure: schedFaults,
		Workers:            4,
		SeedBase:           7,
		Obs:                obsv,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// counterValue finds one labelled counter series in the registry.
func counterValue(t *testing.T, reg *MetricsRegistry, name string, labels map[string]string) uint64 {
	t.Helper()
	for _, fam := range reg.Snapshot() {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Series {
			match := true
			for k, v := range labels {
				if s.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return s.Value
			}
		}
	}
	t.Fatalf("metric %s%v not found", name, labels)
	return 0
}

func gaugeValue(t *testing.T, reg *MetricsRegistry, name string) float64 {
	t.Helper()
	for _, fam := range reg.Snapshot() {
		if fam.Name == name && len(fam.Series) > 0 {
			return fam.Series[0].GaugeValue
		}
	}
	t.Fatalf("gauge %s not found", name)
	return 0
}

// TestNewStudyFanOutFails builds a study over two real workloads and one
// whose golden run crashes: NewStudy must return the crashing workload's
// error, and only after every golden run has finished. The tracer's clock
// jumps an hour the moment NewStudy returns, so a golden span still open
// then shows an hour-long duration.
func TestNewStudyFanOutFails(t *testing.T) {
	crash := Workload{Name: "crash", Suite: "mibench", Build: func(v isa.Variant) *asm.Program {
		b := asm.NewBuilder("crash", v)
		b.Li(1, 2<<20) // beyond 1 MiB RAM: a page fault
		b.Lw(2, 1, 0)
		b.Halt()
		return b.MustAssemble()
	}}
	o := NewObserver(nil)
	var returned atomic.Bool
	o.Trace.SetClock(func() time.Time {
		if returned.Load() {
			return time.Unix(3600, 0)
		}
		return time.Unix(0, 0)
	})
	s, err := NewStudy(StudyConfig{
		Machine:   ConfigA72(),
		Workloads: append(pick(t, "sha", "crc32"), crash),
		Workers:   2,
		Obs:       o,
	})
	returned.Store(true)
	if s != nil || err == nil || !strings.Contains(err.Error(), "crash: campaign: golden run of crash ended crashed") {
		t.Fatalf("NewStudy = %v, %v; want the crash workload's error", s, err)
	}
	golden := 0
	for _, sp := range o.Trace.Spans() {
		if strings.HasPrefix(sp.Name, "golden ") {
			golden++
			if sp.DurUS != 0 {
				t.Errorf("span %q was still open when NewStudy returned", sp.Name)
			}
		}
	}
	if golden != 4 {
		t.Errorf("%d golden spans, want one per workload and the one around them", golden)
	}
}

// TestConcurrentStudySingleFlight drives one Study from eight concurrent
// goroutines over overlapping (structure, workload) pairs in two modes and
// proves, under -race:
//
//   - each (structure, workload, mode, window) campaign executed exactly
//     once (obs fault counters equal the fault-list size, never a multiple),
//   - every other caller coalesced onto the in-flight execution (dedup
//     counter accounts for all remaining calls),
//   - per-pair progress totals never exceeded the fault-list size, and
//   - results are byte-identical to a serial run of the same study config.
func TestConcurrentStudySingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent + serial campaign grids in -short mode")
	}
	obsv := NewObserver(nil)
	s := newSchedStudy(t, obsv)

	const goroutines = 8
	type key struct{ structure, workload, mode string }
	results := make([]map[key][]CampaignResult, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := make(map[key][]CampaignResult)
			// Rotate the pair order per goroutine so callers collide on
			// different campaigns at different times.
			for i := 0; i < len(schedStructures)*len(schedWorkloads); i++ {
				j := (i + g) % (len(schedStructures) * len(schedWorkloads))
				structure := schedStructures[j%len(schedStructures)]
				workload := schedWorkloads[j/len(schedStructures)]
				mine[key{structure, workload, "exhaustive"}] = s.Exhaustive(structure, workload)
				mine[key{structure, workload, "hvf"}] = s.HVF(structure, workload)
			}
			results[g] = mine
		}(g)
	}
	wg.Wait()

	// All goroutines must have observed the same slices.
	for g := 1; g < goroutines; g++ {
		for k, res := range results[0] {
			got := results[g][k]
			if len(got) != len(res) || &got[0] != &res[0] {
				t.Fatalf("goroutine %d got a different result slice for %v", g, k)
			}
		}
	}

	// Exactly-once execution: the campaign layer counted each fault once.
	reg := obsv.Metrics
	for _, structure := range schedStructures {
		for _, workload := range schedWorkloads {
			for _, mode := range []string{"exhaustive", "hvf"} {
				n := counterValue(t, reg, "avgi_campaign_faults_total",
					map[string]string{"structure": structure, "workload": workload, "mode": mode})
				if n != schedFaults {
					t.Errorf("%s/%s/%s executed %d faults, want exactly %d (ran %.1fx)",
						structure, workload, mode, n, schedFaults, float64(n)/schedFaults)
				}
			}
		}
	}

	// The other 7 callers of each of the 8 campaigns coalesced.
	campaigns := uint64(len(schedStructures) * len(schedWorkloads) * 2)
	calls := uint64(goroutines) * campaigns
	if hits := counterValue(t, reg, "avgi_sched_dedup_hits_total", nil); hits != calls-campaigns {
		t.Errorf("dedup hits = %d, want %d", hits, calls-campaigns)
	}

	// Per-pair progress totals never inflated past the fault-list size:
	// every announcement accumulates, so a double execution would show as
	// a pair total above schedFaults.
	snap := obsv.Progress.Snapshot()
	for _, pp := range snap.Pairs {
		if pp.Total != schedFaults || pp.Done != schedFaults {
			t.Errorf("pair %s/%s/%s progress %d/%d, want %d/%d",
				pp.Structure, pp.Workload, pp.Mode, pp.Done, pp.Total, schedFaults, schedFaults)
		}
	}
	if want := int64(campaigns) * schedFaults; snap.FaultsDone != want || snap.FaultsTotal != want {
		t.Errorf("study progress %d/%d, want %d/%d", snap.FaultsDone, snap.FaultsTotal, want, want)
	}

	// Scheduler gauges drained.
	if v := gaugeValue(t, reg, "avgi_sched_inflight_campaigns"); v != 0 {
		t.Errorf("inflight gauge = %v at rest", v)
	}
	if v := gaugeValue(t, reg, "avgi_sched_budget_busy"); v != 0 {
		t.Errorf("budget busy gauge = %v at rest", v)
	}
	if v := gaugeValue(t, reg, "avgi_sched_budget_capacity"); v != 4 {
		t.Errorf("budget capacity gauge = %v, want 4", v)
	}

	// Determinism: a serial run of the same study config produces
	// byte-identical results and summaries.
	serial := newSchedStudy(t, nil)
	for _, structure := range schedStructures {
		for _, workload := range schedWorkloads {
			k := key{structure, workload, "exhaustive"}
			want := serial.Exhaustive(structure, workload)
			if !reflect.DeepEqual(results[0][k], want) {
				t.Errorf("%s/%s exhaustive results diverge from serial execution", structure, workload)
			}
			k = key{structure, workload, "hvf"}
			if !reflect.DeepEqual(results[0][k], serial.HVF(structure, workload)) {
				t.Errorf("%s/%s hvf results diverge from serial execution", structure, workload)
			}
			a := campaign.Summarize(results[0][key{structure, workload, "exhaustive"}])
			b := campaign.Summarize(want)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s summaries diverge: %v vs %v", structure, workload, a, b)
			}
		}
	}
}

// TestPrefetchCoalescesWithSerialConsumers checks that layering Prefetch
// in front of the usual serial accessors is free: the prefetched grid is
// reused, nothing runs twice, and RunAll after the fact is a no-op.
func TestPrefetchCoalescesWithSerialConsumers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign grid in -short mode")
	}
	obsv := NewObserver(nil)
	s := newSchedStudy(t, obsv)
	s.RunAll(ModeExhaustive)
	for _, structure := range schedStructures {
		for _, workload := range schedWorkloads {
			s.Exhaustive(structure, workload) // cached
		}
	}
	s.RunAll(ModeExhaustive) // fully coalesced
	for _, structure := range schedStructures {
		for _, workload := range schedWorkloads {
			n := counterValue(t, obsv.Metrics, "avgi_campaign_faults_total",
				map[string]string{"structure": structure, "workload": workload, "mode": "exhaustive"})
			if n != schedFaults {
				t.Errorf("%s/%s ran %d faults, want exactly %d", structure, workload, n, schedFaults)
			}
		}
	}
	if s.Budget().InUse() != 0 {
		t.Errorf("budget not drained: %d", s.Budget().InUse())
	}
}

// TestPrefetchAVGIWindow: with one window for the whole grid, Prefetch
// overlaps AVGI-mode campaigns as it does the other modes. The Campaign calls
// after it are flight hits, byte-identical to serial runs of a fresh study,
// and a window that does not fit the mode is refused as ParseMode refuses it.
func TestPrefetchAVGIWindow(t *testing.T) {
	const window = 1500
	obsv := NewObserver(nil)
	s := newSchedStudy(t, obsv)
	s.Prefetch(schedStructures, schedWorkloads, ModeAVGI, window)
	serial := newSchedStudy(t, nil)
	for _, structure := range schedStructures {
		for _, workload := range schedWorkloads {
			got := s.Campaign(structure, workload, ModeAVGI, window)
			if want := serial.Campaign(structure, workload, ModeAVGI, window); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: prefetched AVGI results diverge from a serial run", structure, workload)
			}
			n := counterValue(t, obsv.Metrics, "avgi_campaign_faults_total",
				map[string]string{"structure": structure, "workload": workload, "mode": "avgi"})
			if n != schedFaults {
				t.Errorf("%s/%s ran %d faults, want exactly %d", structure, workload, n, schedFaults)
			}
		}
	}
	for _, bad := range []struct {
		mode   Mode
		window uint64
	}{{ModeAVGI, 0}, {ModeExhaustive, window}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Prefetch(%v, window %d) must panic", bad.mode, bad.window)
				}
			}()
			s.Prefetch(schedStructures, schedWorkloads, bad.mode, bad.window)
		}()
	}
}

// TestPanickedCampaignDoesNotPoisonStudy is the end-to-end regression test
// for the poisoned flight cache: runCampaign used to insert the flight
// before executing and, on panic, only close its done channel — the dead
// flight stayed cached, so every later request for that pair was served
// its nil result forever. Now a panicking campaign is evicted and the next
// call re-simulates and succeeds.
func TestPanickedCampaignDoesNotPoisonStudy(t *testing.T) {
	s := newSchedStudy(t, NewObserver(nil))
	// Break the pair's runner so the campaign panics inside the flight
	// (nil-runner dereference in the fault-list step), then restore it.
	saved := s.runners["sha"]
	delete(s.runners, "sha")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("campaign with a broken runner must panic")
			}
		}()
		s.Exhaustive("RF", "sha")
	}()
	s.runners["sha"] = saved

	res := s.Exhaustive("RF", "sha")
	if len(res) != schedFaults {
		t.Fatalf("retry after panic returned %d results, want %d — flight cache poisoned", len(res), schedFaults)
	}
	// And the healthy result is now cached like any other.
	again := s.Exhaustive("RF", "sha")
	if !reflect.DeepEqual(res, again) {
		t.Error("cached result after recovery diverges")
	}
}
