package avgi

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"avgi/internal/campaign"
	"avgi/internal/core"
	"avgi/internal/imm"
)

// smallStudy builds a cached study over a few workloads and structures
// with small fault counts, shared across tests via a package-level
// variable (campaigns are the expensive part).
var testStudy *Study

func getStudy(t *testing.T) *Study {
	t.Helper()
	if testStudy != nil {
		return testStudy
	}
	wl := pick(t, "sha", "crc32", "bitcount", "qsort")
	s, err := NewStudy(StudyConfig{
		Machine:            ConfigA72(),
		Workloads:          wl,
		Structures:         []string{"RF", "L1I (Data)", "L1D (Data)", "ROB", "L2 (Data)", "L1D (Tag)"},
		FaultsPerStructure: 80,
		SeedBase:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	testStudy = s
	return s
}

func pick(t *testing.T, names ...string) []Workload {
	t.Helper()
	var out []Workload
	for _, n := range names {
		w, err := WorkloadByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

func TestPublicSurface(t *testing.T) {
	if len(Structures()) != 12 {
		t.Errorf("structures: %d", len(Structures()))
	}
	if len(Workloads()) != 13 {
		t.Errorf("workloads: %d", len(Workloads()))
	}
	if len(MiBenchWorkloads()) != 10 || len(NASWorkloads()) != 3 {
		t.Error("suite split")
	}
	if _, err := WorkloadByName("nope"); err == nil {
		t.Error("unknown workload must error")
	}
	if _, err := NewRunner(ConfigA72(), "nope"); err == nil {
		t.Error("unknown runner workload must error")
	}
	if n := SampleSize(1<<30, 0.0288, Z99); n < 1900 || n > 2100 {
		t.Errorf("sample size %d", n)
	}
	if e := ErrorMargin(2000, 1<<30, Z99); e > 0.03 {
		t.Errorf("margin %f", e)
	}
	m, err := NewMachine(ConfigA15(), "sha")
	if err != nil || m == nil {
		t.Fatal(err)
	}
}

func TestStudyValidatesStructures(t *testing.T) {
	// A name NewStudy lets through panics later, in the first fault list.
	for _, name := range []string{"BogusArray", "c1/RF"} {
		_, err := NewStudy(StudyConfig{
			Machine:    ConfigA72(),
			Workloads:  pick(t, "sha"),
			Structures: []string{"RF", name},
		})
		if err == nil || !strings.Contains(err.Error(), "unknown structure") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

// A negative sample size is the user's typo (avgi -faults -5): an error,
// never a makeslice panic inside the first fault list.
func TestStudyRejectsNegativeFaults(t *testing.T) {
	_, err := NewStudy(StudyConfig{
		Machine:            ConfigA72(),
		Workloads:          pick(t, "sha"),
		Structures:         []string{"RF"},
		FaultsPerStructure: -5,
	})
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("FaultsPerStructure -5: err = %v, want a negative-size error", err)
	}
}

func TestStudyDefaults(t *testing.T) {
	cfg := StudyConfig{Machine: ConfigA72(), Workloads: pick(t, "sha")}
	cfg.fill()
	if len(cfg.Structures) != 12 || cfg.FaultsPerStructure != 400 || cfg.SeedBase != 1 {
		t.Errorf("defaults: %+v", cfg)
	}
}

func TestStudyCaching(t *testing.T) {
	s := getStudy(t)
	a := s.Exhaustive("RF", "sha")
	b := s.Exhaustive("RF", "sha")
	if &a[0] != &b[0] {
		t.Error("exhaustive results not cached")
	}
	if len(a) != 80 {
		t.Errorf("%d results", len(a))
	}
}

func TestTrainEstimatorAndAssess(t *testing.T) {
	s := getStudy(t)
	est := s.TrainEstimator()
	if err := est.Weights.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(est.ERT) == 0 {
		t.Fatal("no ERT windows derived")
	}
	// ROB windows are relative; RF absolute.
	if !est.ERT["ROB"].Relative {
		t.Error("ROB ERT should be relative")
	}
	if est.ERT["RF"].Relative {
		t.Error("RF ERT should be absolute")
	}
	// The RF window must be far below the longest workload.
	longest := uint64(0)
	for _, w := range s.WorkloadNames() {
		if c := s.Runner(w).Golden.Cycles; c > longest {
			longest = c
		}
	}
	if est.ERT["RF"].Cycles >= longest {
		t.Errorf("RF ERT %d not below longest run %d", est.ERT["RF"].Cycles, longest)
	}

	results, window := s.AVGIRun(est, "RF", "sha")
	a := est.AssessResults(s.Runner("sha"), "RF", results, window)
	truth := s.GroundTruthAVF("RF", "sha")
	if d := math.Abs(a.AVF.Total() - truth.Total()); d > 0.20 {
		t.Errorf("AVGI estimate off by %.3f (est %.3f truth %.3f)", d, a.AVF.Total(), truth.Total())
	}
}

func TestLeaveOneOutExcludes(t *testing.T) {
	s := getStudy(t)
	td := s.TrainingData([]string{"RF"}, "sha")
	if _, ok := td.Results["RF"]["sha"]; ok {
		t.Error("excluded workload present in training data")
	}
	if _, ok := td.OutputSize["sha"]; ok {
		t.Error("excluded workload present in output sizes")
	}
	if _, ok := td.Results["RF"]["crc32"]; !ok {
		t.Error("non-excluded workload missing")
	}
}

func TestFig1ACEAboveSFI(t *testing.T) {
	s := getStudy(t)
	tab := s.Fig1()
	if len(tab.Rows) != len(s.WorkloadNames()) {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	for _, w := range s.WorkloadNames() {
		sfi := s.GroundTruthAVF("RF", w).Total()
		aceAVF := ACEAnalyzeRF(s.Runner(w))
		if aceAVF < sfi {
			t.Errorf("%s: ACE %.4f < SFI %.4f", w, aceAVF, sfi)
		}
	}
}

func TestFig3ROBIsAllPRE(t *testing.T) {
	s := getStudy(t)
	dist := s.IMMDistribution("ROB")
	for w, d := range dist {
		for c, f := range d {
			if c != imm.PRE && f > 0 {
				t.Errorf("%s: ROB corruption class %v = %.2f, want only PRE", w, c, f)
			}
		}
	}
	tabs := s.Fig3("ROB", "RF")
	if len(tabs) != 2 {
		t.Fatalf("tables %d", len(tabs))
	}
	var buf bytes.Buffer
	tabs[0].Render(&buf)
	if !strings.Contains(buf.String(), "AVG") {
		t.Error("missing AVG row")
	}
}

func TestFig3RFDominatedByDCR(t *testing.T) {
	s := getStudy(t)
	dist := s.IMMDistribution("RF")
	var dcr, rest float64
	for _, d := range dist {
		for c, f := range d {
			if c == imm.DCR {
				dcr += f
			} else {
				rest += f
			}
		}
	}
	if dcr <= rest {
		t.Errorf("RF: DCR %.2f not dominant over rest %.2f", dcr, rest)
	}
}

func TestFig4And5Render(t *testing.T) {
	s := getStudy(t)
	f4 := s.Fig4()
	if len(f4) != 3 {
		t.Fatalf("fig4 tables %d", len(f4))
	}
	f5 := s.Fig5()
	if len(f5) != len(s.Cfg.Structures) {
		t.Fatalf("fig5 tables %d", len(f5))
	}
	var buf bytes.Buffer
	for _, tab := range append(f4, f5...) {
		tab.Render(&buf)
		tab.CSV(&buf)
	}
	if buf.Len() == 0 {
		t.Error("no output")
	}
}

func TestFig7PredictionsNonNegative(t *testing.T) {
	s := getStudy(t)
	for _, tab := range s.Fig7() {
		if len(tab.Rows) != len(s.WorkloadNames())+1 {
			t.Errorf("%s: rows %d", tab.Title, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			if strings.HasPrefix(row[3], "-") && row[3] != "-" {
				t.Errorf("negative prediction in %s: %v", tab.Title, row)
			}
		}
	}
}

func TestFig8InclusiveExclusiveAgree(t *testing.T) {
	s := getStudy(t)
	est := s.TrainEstimator()
	tab := s.Fig8(est)
	if len(tab.Rows) != 2*len(s.WorkloadNames()) {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Check distribution agreement numerically: inclusive vs exclusive
	// IMM fractions for L1I data within a loose tolerance at this sample
	// size.
	for _, w := range s.WorkloadNames() {
		inc := campaign.Summarize(s.Exhaustive("L1I (Data)", w)).IMMFractions()
		res, _ := s.AVGIRun(est, "L1I (Data)", w)
		exc := campaign.Summarize(res).IMMFractions()
		for c, f := range inc {
			if math.Abs(f-exc[c]) > 0.30 {
				t.Errorf("%s/%v: inclusive %.2f vs exclusive %.2f", w, c, f, exc[c])
			}
		}
	}
}

func TestFig9AndTable2(t *testing.T) {
	s := getStudy(t)
	est := s.TrainEstimator()
	f9 := s.Fig9(est)
	if len(f9.Rows) != len(s.Cfg.Structures) {
		t.Fatalf("fig9 rows %d", len(f9.Rows))
	}
	rows := s.TimingRows(est)
	var totalSFI, totalAVGI uint64
	for _, r := range rows {
		totalSFI += r.SFICycles
		totalAVGI += r.AVGICycles
		if r.AVGICycles > r.SFICycles {
			t.Errorf("%s: AVGI cost %d above SFI %d", r.Structure, r.AVGICycles, r.SFICycles)
		}
		if r.HVFCycles > r.SFICycles {
			t.Errorf("%s: HVF cost above SFI", r.Structure)
		}
	}
	if totalAVGI*2 > totalSFI {
		t.Errorf("overall speedup too small: SFI %d vs AVGI %d", totalSFI, totalAVGI)
	}
	tab := s.Table2(est, core.ThroughputModel{CyclesPerSecond: 1e6, Cores: 192})
	if len(tab.Rows) != len(rows)+1 {
		t.Fatalf("table2 rows %d", len(tab.Rows))
	}
	if tab.Rows[len(tab.Rows)-1][0] != "Total" {
		t.Error("missing Total row")
	}
}

func TestFig10AccuracyWithinTolerance(t *testing.T) {
	s := getStudy(t)
	tabs := s.Fig10("RF")
	if len(tabs) != 1 || len(tabs[0].Rows) != len(s.WorkloadNames()) {
		t.Fatalf("fig10 shape")
	}
	// Numeric check: leave-one-out AVGI total AVF within 0.25 of truth at
	// this small sample size.
	for _, w := range s.WorkloadNames() {
		truth := s.GroundTruthAVF("RF", w)
		est := s.TrainEstimator(w)
		results, window := s.AVGIRun(est, "RF", w)
		a := est.AssessResults(s.Runner(w), "RF", results, window)
		if d := math.Abs(a.AVF.Total() - truth.Total()); d > 0.25 {
			t.Errorf("%s: |dAVF| = %.3f", w, d)
		}
	}
}

func TestFig11ChipFIT(t *testing.T) {
	s := getStudy(t)
	tab := s.Fig11()
	if tab.Rows[len(tab.Rows)-1][0] != "CHIP" {
		t.Fatal("missing CHIP row")
	}
	if len(tab.Rows) != len(s.Cfg.Structures)+1 {
		t.Errorf("rows %d", len(tab.Rows))
	}
}

func TestFig12CaseStudyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("second study in -short mode")
	}
	s, err := NewStudy(StudyConfig{
		Machine:            ConfigA15(),
		Workloads:          pick(t, "sha", "crc32", "bitcount"),
		Structures:         Fig12Structures,
		FaultsPerStructure: 60,
		SeedBase:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tabs := Fig12(s)
	if len(tabs) != len(Fig12Structures) {
		t.Fatalf("tables %d", len(tabs))
	}
	for _, tab := range tabs {
		if !strings.Contains(tab.Title, "A15 case study") {
			t.Errorf("title %q", tab.Title)
		}
	}
}
