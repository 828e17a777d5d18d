package campaign

import (
	"strings"
	"testing"

	"avgi/internal/forensics"
	"avgi/internal/imm"
	"avgi/internal/obs"
)

// TestRunWithObserver drives a parallel campaign with full telemetry
// attached and checks the counters, progress and span agree with the
// results. Run under -race this is also the registry/progress concurrency
// test over the real workload path.
func TestRunWithObserver(t *testing.T) {
	r := shaRunner(t)
	o := obs.New(nil)
	r.Obs = o
	r.PublishGolden()

	const n = 48
	faults := r.FaultList("RF", n, 1)
	results := r.Run(faults, ModeAVGI, 2000, 4)
	if len(results) != n {
		t.Fatalf("%d results", len(results))
	}
	sum := Summarize(results)

	get := func(name string, labels map[string]string) uint64 {
		return o.Metrics.Counter(name, "", labels).Value()
	}
	lb := map[string]string{"structure": "RF", "workload": "sha", "mode": "avgi"}
	if got := get("avgi_campaign_faults_total", lb); got != n {
		t.Errorf("faults_total %d, want %d", got, n)
	}
	if got := get("avgi_campaign_corruptions_total", lb); got != uint64(sum.Corruptions) {
		t.Errorf("corruptions_total %d, want %d", got, sum.Corruptions)
	}
	if got := get("avgi_campaign_sim_cycles_total", lb); got != sum.SimCycles {
		t.Errorf("sim_cycles_total %d, want %d", got, sum.SimCycles)
	}
	if exh := get("avgi_campaign_exhaustive_cycles_est_total", lb); exh < sum.SimCycles {
		t.Errorf("exhaustive estimate %d below actual %d", exh, sum.SimCycles)
	}
	// Every PRF flip lands on live state, so all n faults are armed.
	if got := get("avgi_flips_armed_total", map[string]string{"structure": "RF"}); got != n {
		t.Errorf("flips_armed_total %d, want %d", got, n)
	}

	h := o.Metrics.Histogram("avgi_campaign_fault_sim_cycles", "", nil,
		map[string]string{"mode": "avgi"})
	if got := h.Count(); got != n {
		t.Errorf("sim-cycle histogram count %d, want %d", got, n)
	}
	if got := uint64(h.Sum()); got != sum.SimCycles {
		t.Errorf("sim-cycle histogram sum %d, want %d", got, sum.SimCycles)
	}

	ps := o.Progress.Snapshot()
	if ps.FaultsDone != n || ps.FaultsTotal != n {
		t.Errorf("progress %d/%d, want %d/%d", ps.FaultsDone, ps.FaultsTotal, n, n)
	}
	if len(ps.Pairs) != 1 || ps.Pairs[0].Done != n || ps.Pairs[0].SimCycles != sum.SimCycles {
		t.Errorf("pair state %+v", ps.Pairs)
	}
	if ps.SpeedupVsExhaustive < 1 {
		t.Errorf("speedup %v < 1", ps.SpeedupVsExhaustive)
	}

	var campSpan *obs.Span
	for _, sp := range o.Trace.Spans() {
		if sp.Name == "campaign avgi RF sha" {
			s := sp
			campSpan = &s
		}
	}
	if campSpan == nil {
		t.Fatal("campaign span not recorded")
	}
	if campSpan.Attrs["faults"] != "48" || campSpan.Attrs["structure"] != "RF" {
		t.Errorf("span attrs %v", campSpan.Attrs)
	}

	// Golden gauges from PublishGolden.
	g := o.Metrics.Gauge("avgi_golden_cycles", "",
		map[string]string{"workload": "sha", "machine": r.Cfg.Name})
	if uint64(g.Value()) != r.Golden.Cycles {
		t.Errorf("golden cycles gauge %v, want %d", g.Value(), r.Golden.Cycles)
	}
}

// TestRunObservedMatchesUnobserved checks instrumentation does not change
// campaign results: the observed path must be bit-identical to the plain
// one.
func TestRunObservedMatchesUnobserved(t *testing.T) {
	r := shaRunner(t)
	faults := r.FaultList("ROB", 30, 1)
	plain := r.Run(faults, ModeExhaustive, 0, 2)

	r.Obs = obs.New(nil)
	observed := r.Run(faults, ModeExhaustive, 0, 2)
	for i := range plain {
		if plain[i] != observed[i] {
			t.Fatalf("result %d diverged: %+v vs %+v", i, plain[i], observed[i])
		}
	}
}

// refuseFirst grants every chunk but the first, which another process owns.
type refuseFirst struct{}

func (refuseFirst) Claim(lo, hi int) (func(bool), bool) { return func(bool) {}, lo != 0 }

// TestCampaignTelemetryFoldsResults: the campaign series are one fold over
// exactly the Results a call settled — run fresh, resumed from a prior
// covering every third fault, and with a claimer that refuses the first
// chunk, one poisoned fault quarantined in each — and the progress pair
// ends with every fault it announced done. The explorer records a campaign
// only when no claimer split it. A list mixing structures panics.
func TestCampaignTelemetryFoldsResults(t *testing.T) {
	r := shaRunner(t)
	r.EarlyExit = true
	r.Forensics = forensics.NewExplorer()
	const n, plan = 36, 4
	chunk := ChunkSize(n, plan)
	for _, st := range []string{"RF", "ROB"} {
		faults := r.FaultList(st, n, 2)
		faults[10] = poisonFault(r, st, faults[10].Cycle)
		serial := r.Run(faults, ModeAVGI, 2000, 2)
		prior := make(map[int]Result)
		for i := 0; i < n; i += 3 {
			prior[i] = serial[i]
		}
		for _, tc := range []struct {
			name    string
			spec    RunSpec
			settled func(i int) bool
		}{
			{"fresh", RunSpec{}, func(int) bool { return true }},
			{"resumed", RunSpec{Prior: prior}, func(i int) bool { return i%3 != 0 }},
			{"claimed", RunSpec{PlanWorkers: plan, Claimer: refuseFirst{}}, func(i int) bool { return i >= chunk }},
		} {
			o := obs.New(nil)
			r.Obs = o
			spec := tc.spec
			spec.Faults, spec.Mode, spec.Window, spec.Budget = faults, ModeAVGI, 2000, NewBudget(2)
			results, _ := r.RunCampaign(spec)
			r.Obs = nil

			var settled []Result
			causes := make(map[forensics.Cause]uint64)
			var divs int
			for i, res := range results {
				if !tc.settled(i) {
					continue
				}
				settled = append(settled, res)
				if fr := res.Forensics; fr != nil {
					causes[fr.Cause]++
					if fr.Divergence != nil {
						divs++
					}
				}
			}
			sum := Summarize(settled)
			name := st + " " + tc.name
			lb := map[string]string{"structure": st, "workload": "sha", "mode": "avgi"}
			for _, c := range []struct {
				series string
				want   uint64
			}{
				{"avgi_campaign_faults_total", uint64(len(settled))},
				{"avgi_campaign_corruptions_total", uint64(sum.Corruptions)},
				{"avgi_faults_quarantined_total", uint64(sum.Quarantined)},
				{"avgi_campaign_sim_cycles_total", sum.SimCycles},
			} {
				if got := o.Metrics.Counter(c.series, "", lb).Value(); got != c.want {
					t.Errorf("%s: %s %d, the settled Results tally %d", name, c.series, got, c.want)
				}
			}
			if sum.Quarantined != 1 {
				t.Errorf("%s: %d quarantined among the settled Results, want the poisoned one", name, sum.Quarantined)
			}
			for _, c := range forensics.Causes {
				cl := map[string]string{"cause": c.String(), "structure": st, "workload": "sha", "mode": "avgi"}
				if got := o.Metrics.Counter("avgi_mask_cause_total", "", cl).Value(); got != causes[c] {
					t.Errorf("%s: avgi_mask_cause_total{cause=%q} %d, the settled Results carry %d", name, c, got, causes[c])
				}
			}
			hl := map[string]string{"mode": "avgi"}
			if h := o.Metrics.Histogram("avgi_campaign_fault_sim_cycles", "", nil, hl); h.Count() != uint64(len(settled)) || uint64(h.Sum()) != sum.SimCycles {
				t.Errorf("%s: sim-cycle histogram %d faults, %v cycles; want %d, %d", name, h.Count(), h.Sum(), len(settled), sum.SimCycles)
			}
			if h := o.Metrics.Histogram("avgi_divergence_latency_cycles", "", nil, hl); h.Count() != uint64(divs) {
				t.Errorf("%s: divergence histogram counts %d, the settled Results carry %d", name, h.Count(), divs)
			}
			ps := o.Progress.Snapshot()
			if len(ps.Pairs) != 1 || ps.Pairs[0].Done != len(settled) || ps.Pairs[0].Total != len(settled) {
				t.Errorf("%s: progress pairs %+v, want one at %d/%d", name, ps.Pairs, len(settled), len(settled))
			}
		}
		// The serial run and the fresh and resumed campaigns each record the
		// whole list but its quarantined fault; the claimed one records none.
		for _, e := range r.Forensics.Snapshot() {
			if e.Structure == st && e.Faults != 3*(n-1) {
				t.Errorf("%s: the explorer recorded %d faults, want %d", st, e.Faults, 3*(n-1))
			}
		}
	}

	mixed := append(r.FaultList("RF", 4, 1), r.FaultList("ROB", 4, 1)...)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "mixes RF and ROB") {
			t.Errorf("a list mixing RF and ROB: panic %q", msg)
		}
	}()
	r.Run(mixed, ModeAVGI, 2000, 1)
}

func TestFaultListUnknownStructurePanics(t *testing.T) {
	r := shaRunner(t)
	for _, fn := range []func(){
		func() { r.FaultList("L1D", 10, 1) }, // plausible misspelling of "L1D (Data)"
		func() { r.MultiBitFaultList("rf", 10, 2, 1) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if msg == "" {
					t.Fatal("no panic for unknown structure")
				}
				if !strings.Contains(msg, "unknown structure") || !strings.Contains(msg, "RF") {
					t.Errorf("panic message %q does not name the known structures", msg)
				}
			}()
			fn()
		}()
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{
		Total: 10, Corruptions: 4, Benign: 6, SimCycles: 1234,
		ByIMM: map[imm.IMM]int{imm.Benign: 6, imm.IFC: 1, imm.DCR: 3},
	}
	want := "10 faults: 4 corruptions, 6 benign (IFC 1, DCR 3), 1234 sim cycles"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}

	empty := Summary{}
	if got := empty.String(); got != "0 faults: 0 corruptions, 0 benign" {
		t.Errorf("empty String() = %q", got)
	}
}
