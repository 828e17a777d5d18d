package core

import (
	"math"
	"testing"

	"avgi/internal/asm"
	"avgi/internal/campaign"
	"avgi/internal/cpu"
	"avgi/internal/imm"
	"avgi/internal/prog"
)

// fabricate builds an exhaustive result list with the given (imm, effect)
// counts.
func fabricate(counts map[imm.IMM]map[imm.Effect]int) []campaign.Result {
	var out []campaign.Result
	for class, effects := range counts {
		for eff, n := range effects {
			for i := 0; i < n; i++ {
				out = append(out, campaign.Result{IMM: class, Effect: eff, HasEffect: true, Manifested: class != imm.Benign && class != imm.ESC})
			}
		}
	}
	return out
}

func TestTrainWeightsMeansAcrossWorkloads(t *testing.T) {
	data := map[string]map[string][]campaign.Result{
		"L1I (Data)": {
			// Workload A: OFS is 40% masked, 60% crash.
			"a": fabricate(map[imm.IMM]map[imm.Effect]int{
				imm.OFS: {imm.Masked: 4, imm.Crash: 6},
			}),
			// Workload B: OFS is 60% masked, 40% crash.
			"b": fabricate(map[imm.IMM]map[imm.Effect]int{
				imm.OFS: {imm.Masked: 6, imm.Crash: 4},
			}),
		},
	}
	w := TrainWeights(data)
	p := w.Lookup("L1I (Data)", imm.OFS)
	if math.Abs(p[imm.Masked]-0.5) > 1e-9 || math.Abs(p[imm.Crash]-0.5) > 1e-9 {
		t.Errorf("OFS weights %v, want 0.5/0/0.5", p)
	}
	if err := w.Validate(); err != nil {
		t.Error(err)
	}
	if w.Spread["L1I (Data)"][imm.OFS] < 0.09 {
		t.Errorf("spread = %f, expected ~0.1", w.Spread["L1I (Data)"][imm.OFS])
	}
	if len(w.Structures()) != 1 {
		t.Error("structures")
	}
}

func TestWeightsLookupFallbacks(t *testing.T) {
	w := TrainWeights(nil)
	if p := w.Lookup("RF", imm.Benign); p != (EffectProbs{1, 0, 0}) {
		t.Errorf("benign: %v", p)
	}
	if p := w.Lookup("RF", imm.DCR); p != (EffectProbs{0, 0.5, 0.5}) {
		t.Errorf("unseen class prior: %v", p)
	}
}

func TestESCShapeProperties(t *testing.T) {
	// Larger output -> larger shape; more benign (same total+benign
	// denominator behaviour) -> smaller.
	if ESCShape(4096, 100, 50) <= ESCShape(1024, 100, 50) {
		t.Error("shape should grow with output size")
	}
	if ESCShape(1024, 100, 90) >= ESCShape(1024, 100, 10) {
		t.Error("shape should shrink as benign approaches total")
	}
	if ESCShape(1024, 0, 0) != 0 {
		t.Error("degenerate shape")
	}
}

func TestTrainESCAndPredict(t *testing.T) {
	// Build training data with a known ESC count and check the model
	// recovers it for the same exposure conditions.
	results := fabricate(map[imm.IMM]map[imm.Effect]int{
		imm.Benign: {imm.Masked: 80},
		imm.DCR:    {imm.SDC: 10},
		imm.ESC:    {imm.SDC: 10},
	})
	data := map[string]map[string][]campaign.Result{
		"L2 (Data)": {"blowfishy": results},
		"RF":        {"blowfishy": results},
	}
	exposure := map[string]map[string]float64{
		"L2 (Data)": {"blowfishy": 0.2},
		"RF":        {"blowfishy": 0.2},
	}
	m := TrainESC(data, exposure)
	if m.C["RF"] != 0 {
		t.Error("RF must not have an ESC constant")
	}
	got := m.Predict("L2 (Data)", 0.2, 100, 90)
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("self-prediction = %f, want 10", got)
	}
	// Prediction scales linearly with exposure.
	if p := m.Predict("L2 (Data)", 0.1, 100, 90); math.Abs(p-5) > 1e-9 {
		t.Errorf("half exposure = %f, want 5", p)
	}
	if m.Predict("RF", 0.2, 100, 90) != 0 {
		t.Error("RF prediction must be 0")
	}
	if m.Predict("L2 (Data)", 0, 100, 90) != 0 {
		t.Error("zero exposure must predict zero")
	}
	// Clamped to the benign population.
	if p := m.Predict("L2 (Data)", 1000, 100, 5); p > 5 {
		t.Errorf("prediction %f exceeds benign count", p)
	}
}

func TestDeriveERT(t *testing.T) {
	mk := func(lat ...uint64) []campaign.Result {
		var out []campaign.Result
		for _, l := range lat {
			out = append(out, campaign.Result{Manifested: true, ManifestLatency: l})
		}
		out = append(out, campaign.Result{}) // one benign
		return out
	}
	data := map[string]map[string][]campaign.Result{
		"RF":  {"a": mk(100, 400), "b": mk(300)},
		"ROB": {"a": mk(100), "b": mk(50)},
	}
	totals := map[string]uint64{"a": 10000, "b": 1000}
	ert := DeriveERT(data, totals)
	rf := ert["RF"]
	if rf.Relative {
		t.Error("RF must be absolute")
	}
	if rf.Cycles != uint64(400*ertSafety) {
		t.Errorf("RF window %d", rf.Cycles)
	}
	rob := ert["ROB"]
	if !rob.Relative {
		t.Fatal("ROB must be relative")
	}
	// Max fraction is 50/1000 = 5% from workload b.
	if math.Abs(rob.Frac-0.05*ertSafety) > 1e-9 {
		t.Errorf("ROB frac %f", rob.Frac)
	}
	if rob.Window(2000) != uint64(0.05*ertSafety*2000) {
		t.Errorf("window %d", rob.Window(2000))
	}
	// Defaults for unobserved structures.
	empty := DeriveERT(map[string]map[string][]campaign.Result{
		"LQ": {}, "DTLB": {},
	}, nil)
	if !empty["LQ"].Relative || empty["LQ"].Frac != 0.03 {
		t.Errorf("LQ default %+v", empty["LQ"])
	}
	if empty["DTLB"].Cycles != 1000 {
		t.Errorf("DTLB default %+v", empty["DTLB"])
	}
}

func TestLatencyPercentile(t *testing.T) {
	rs := []campaign.Result{
		{Manifested: true, ManifestLatency: 10},
		{Manifested: true, ManifestLatency: 20},
		{Manifested: true, ManifestLatency: 30},
		{Manifested: true, ManifestLatency: 1000},
		{},
	}
	if p := LatencyPercentile(rs, 0); p != 10 {
		t.Errorf("p0 = %d", p)
	}
	if p := LatencyPercentile(rs, 1); p != 1000 {
		t.Errorf("p100 = %d", p)
	}
	// With 4 samples, p50 must round UP to index 2 (30) like quantIdx —
	// the truncating int(p*(n-1)) would pick 20 and under-report the
	// latency the ERT derivation uses on small samples.
	if p := LatencyPercentile(rs, 0.5); p != 30 {
		t.Errorf("p50 = %d", p)
	}
	if LatencyPercentile(nil, 0.5) != 0 {
		t.Error("empty percentile")
	}
}

// TestLatencyPercentileMatchesQuantIdx pins LatencyPercentile to the same
// quantile rule the ERT derivation uses (quantIdx), across small sample
// sizes where truncating vs rounding up diverge.
func TestLatencyPercentileMatchesQuantIdx(t *testing.T) {
	for n := 1; n <= 7; n++ {
		var rs []campaign.Result
		for i := 0; i < n; i++ {
			rs = append(rs, campaign.Result{Manifested: true, ManifestLatency: uint64(100 * (i + 1))})
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			want := uint64(100 * (quantIdx(n, p) + 1))
			if got := LatencyPercentile(rs, p); got != want {
				t.Errorf("n=%d p=%g: LatencyPercentile = %d, quantIdx sample = %d", n, p, got, want)
			}
		}
	}
}

func TestAVFFromEffects(t *testing.T) {
	s := campaign.Summarize(fabricate(map[imm.IMM]map[imm.Effect]int{
		imm.Benign: {imm.Masked: 5},
		imm.DCR:    {imm.SDC: 3, imm.Crash: 2},
	}))
	a := AVFFromEffects(s)
	if a.Masked != 0.5 || a.SDC != 0.3 || a.Crash != 0.2 {
		t.Errorf("%+v", a)
	}
	if math.Abs(a.Total()-0.5) > 1e-9 {
		t.Errorf("total %f", a.Total())
	}
	if (AVFFromEffects(campaign.Summary{})) != (AVF{}) {
		t.Error("empty AVF")
	}
}

// TestAssessResultsBitExact: the phase-4 sums add the classes in a fixed
// order, so the same results give the same AVF to the last bit. The three
// per-class terms are chosen so that the order of addition shows.
func TestAssessResultsBitExact(t *testing.T) {
	a, b, c := 0.1, 0.2, 0.3
	if (a+b)+c == a+(b+c) {
		t.Fatal("terms do not expose the order of addition")
	}
	est := &Estimator{
		Weights: &Weights{P: map[string]map[imm.IMM]EffectProbs{"RF": {
			imm.IFC: {a, 1 - a, 0},
			imm.DCR: {b, 0, 1 - b},
			imm.PRE: {c, 1 - c, 0},
		}}},
		ESC: &ESCModel{},
	}
	r := &campaign.Runner{Prog: &asm.Program{Name: "fixed"}}
	results := []campaign.Result{{IMM: imm.IFC}, {IMM: imm.DCR}, {IMM: imm.PRE}}

	want := est.AssessResults(r, "RF", results, 0).AVF
	if want.Masked != ((a+b)+c)/3 {
		t.Errorf("Masked = %v, want the classes summed in imm.Classes order", want.Masked)
	}
	for i := 0; i < 200; i++ {
		got := est.AssessResults(r, "RF", results, 0).AVF
		if math.Float64bits(got.Masked) != math.Float64bits(want.Masked) ||
			math.Float64bits(got.SDC) != math.Float64bits(want.SDC) ||
			math.Float64bits(got.Crash) != math.Float64bits(want.Crash) {
			t.Fatalf("call %d: AVF %+v, first call gave %+v", i, got, want)
		}
	}
}

func TestFIT(t *testing.T) {
	f := FITOf(AVF{SDC: 0.1, Crash: 0.2}, 1000)
	wantSDC := RawFITPerBit * 1000 * 0.1
	if math.Abs(f.SDC-wantSDC) > 1e-12 {
		t.Errorf("SDC FIT %g", f.SDC)
	}
	if math.Abs(f.Total()-RawFITPerBit*1000*0.3) > 1e-12 {
		t.Errorf("total FIT %g", f.Total())
	}
	sum := f.Add(f)
	if math.Abs(sum.Total()-2*f.Total()) > 1e-12 {
		t.Error("Add")
	}
}

func TestTimingRow(t *testing.T) {
	r := TimingRow{Structure: "RF", SFICycles: 1000000, HVFCycles: 160000, AVGICycles: 3000}
	if s := r.SpeedupInsight12(); math.Abs(s-6.25) > 1e-9 {
		t.Errorf("insight 1&2 %f", s)
	}
	if s := r.SpeedupInsight3(); math.Abs(s-333.33) > 0.01 {
		t.Errorf("insight 3 %f", s)
	}
	if o := r.OrdersOfMagnitude(); math.Abs(o-math.Log10(1000000.0/3000)) > 1e-9 {
		t.Errorf("orders %f", o)
	}
	if (TimingRow{}).SpeedupInsight3() != 0 {
		t.Error("zero division")
	}
	if (TimingRow{}).OrdersOfMagnitude() != 0 {
		t.Error("zero orders")
	}
}

func TestThroughputModel(t *testing.T) {
	m := ThroughputModel{CyclesPerSecond: 1e6, Cores: 10}
	// 864e9 cycles at 1e7 cycles/s aggregate = 86400 s = 1 day.
	if d := m.Days(864_000_000_000); math.Abs(d-1) > 1e-9 {
		t.Errorf("days %f", d)
	}
	if (ThroughputModel{}).Days(100) != 0 {
		t.Error("degenerate model")
	}
}

// TestEstimatorEndToEnd trains on one workload and assesses another,
// checking that the estimate lands near the exhaustive ground truth. This
// is a miniature of the paper's Fig. 10 accuracy evaluation.
func TestEstimatorEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are slow in -short mode")
	}
	cfg := cpu.ConfigA72()
	mkRunner := func(name string) *campaign.Runner {
		w, err := prog.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := campaign.NewRunner(cfg, w.Build(cfg.Variant))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	train := mkRunner("sha")
	test := mkRunner("crc32")

	const n = 120
	trainResults := train.Run(train.FaultList("RF", n, 1), campaign.ModeExhaustive, 0, 0)
	td := TrainingData{
		Results:     map[string]map[string][]campaign.Result{"RF": {"sha": trainResults}},
		OutputSize:  map[string]int{"sha": len(train.Golden.Output)},
		TotalCycles: map[string]uint64{"sha": train.Golden.Cycles},
	}
	est := Train(td)

	assessment := est.Assess(test, "RF", n, 2, 0)
	truth := AVFFromEffects(campaign.Summarize(
		test.Run(test.FaultList("RF", n, 2), campaign.ModeExhaustive, 0, 0)))

	if assessment.Faults != n {
		t.Fatalf("faults %d", assessment.Faults)
	}
	// Cross-workload estimate within a loose tolerance (small samples).
	if d := math.Abs(assessment.AVF.Total() - truth.Total()); d > 0.25 {
		t.Errorf("estimated AVF %.3f vs truth %.3f (|d|=%.3f)", assessment.AVF.Total(), truth.Total(), d)
	}
	if s := assessment.AVF.Masked + assessment.AVF.SDC + assessment.AVF.Crash; math.Abs(s-1) > 1e-6 {
		t.Errorf("AVF not normalised: %f", s)
	}
	if assessment.Window == 0 || assessment.Window >= test.Golden.Cycles {
		t.Errorf("window %d vs golden %d", assessment.Window, test.Golden.Cycles)
	}
	// The AVGI assessment must be far cheaper than the exhaustive one.
	exCost := campaign.Summarize(test.Run(test.FaultList("RF", n, 2), campaign.ModeExhaustive, 0, 0)).SimCycles
	if assessment.SimCycles*2 > exCost {
		t.Errorf("AVGI cost %d not clearly below exhaustive %d", assessment.SimCycles, exCost)
	}
}
